//! Interaction schedulers: who meets whom at each step.

use pp_rand::{Rng64, Xoshiro256PlusPlus};

/// One interaction: an ordered pair of distinct agent indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interaction {
    /// The agent serving as initiator.
    pub initiator: usize,
    /// The agent serving as responder.
    pub responder: usize,
}

impl Interaction {
    /// Creates an interaction.
    ///
    /// # Panics
    ///
    /// Panics if `initiator == responder`.
    pub fn new(initiator: usize, responder: usize) -> Self {
        assert_ne!(initiator, responder, "an agent cannot interact with itself");
        Self {
            initiator,
            responder,
        }
    }
}

/// A source of interactions for a population of `n` agents.
///
/// Schedulers are infinite: [`next_interaction`](Scheduler::next_interaction)
/// always yields. Finite deterministic schedules for tests are applied
/// directly through [`Configuration::apply_schedule`](crate::Configuration::apply_schedule)
/// or wrapped in a cycling [`ReplayScheduler`].
pub trait Scheduler {
    /// Produces the interaction for the next step of a population of size `n`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `n < 2`.
    fn next_interaction(&mut self, n: usize) -> Interaction;
}

/// The uniformly random scheduler Γ: each step selects an ordered pair of
/// distinct agents uniformly at random — `Pr[(u, v)] = 1 / (n(n−1))`.
///
/// This is the scheduler under which all of the paper's results are stated.
///
/// # Example
///
/// ```
/// use pp_engine::{Scheduler, UniformScheduler};
///
/// let mut s = UniformScheduler::seed_from_u64(3);
/// let i = s.next_interaction(10);
/// assert_ne!(i.initiator, i.responder);
/// ```
#[derive(Debug, Clone)]
pub struct UniformScheduler<R = Xoshiro256PlusPlus> {
    rng: R,
}

impl UniformScheduler<Xoshiro256PlusPlus> {
    /// Creates a uniform scheduler driven by Xoshiro256++ seeded from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
        }
    }
}

impl<R: Rng64> UniformScheduler<R> {
    /// Creates a uniform scheduler from an arbitrary RNG.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }
}

impl<R: Rng64> Scheduler for UniformScheduler<R> {
    #[inline]
    fn next_interaction(&mut self, n: usize) -> Interaction {
        let (a, b) = self.rng.distinct_pair(n);
        Interaction {
            initiator: a,
            responder: b,
        }
    }
}

/// Replays a fixed sequence of interactions, cycling when exhausted.
///
/// Useful for regression tests that need an exact execution, and for
/// adversarial worst-case schedules.
#[derive(Debug, Clone)]
pub struct ReplayScheduler {
    steps: Vec<Interaction>,
    pos: usize,
}

impl ReplayScheduler {
    /// Creates a scheduler replaying `steps` in order, cycling at the end.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(steps: Vec<Interaction>) -> Self {
        assert!(!steps.is_empty(), "replay schedule must be non-empty");
        Self { steps, pos: 0 }
    }

    /// The number of recorded interactions before the schedule cycles.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl Scheduler for ReplayScheduler {
    fn next_interaction(&mut self, n: usize) -> Interaction {
        let i = self.steps[self.pos];
        assert!(
            i.initiator < n && i.responder < n,
            "replayed interaction {i:?} out of bounds for population of {n}"
        );
        self.pos = (self.pos + 1) % self.steps.len();
        i
    }
}

/// A deterministic scheduler sweeping ordered pairs in round-robin order:
/// `(0,1), (1,2), …, (n−1,0), (0,2), …` — a fair but adversarially regular
/// schedule that exercises protocols outside the uniformly random regime.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinScheduler {
    t: u64,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler starting at phase 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn next_interaction(&mut self, n: usize) -> Interaction {
        assert!(n >= 2, "round-robin scheduler needs at least two agents");
        let nn = n as u64;
        let round = self.t / nn; // which offset to use
        let i = (self.t % nn) as usize;
        let offset = (round % (nn - 1) + 1) as usize;
        let j = (i + offset) % n;
        self.t += 1;
        Interaction {
            initiator: i,
            responder: j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "itself")]
    fn interaction_rejects_self_pair() {
        Interaction::new(3, 3);
    }

    #[test]
    fn uniform_scheduler_is_deterministic_per_seed() {
        let mut a = UniformScheduler::seed_from_u64(5);
        let mut b = UniformScheduler::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(a.next_interaction(7), b.next_interaction(7));
        }
    }

    #[test]
    fn uniform_scheduler_covers_all_ordered_pairs() {
        let mut s = UniformScheduler::seed_from_u64(11);
        let n = 4;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let i = s.next_interaction(n);
            seen.insert((i.initiator, i.responder));
        }
        assert_eq!(seen.len(), n * (n - 1));
    }

    #[test]
    fn replay_cycles() {
        let steps = vec![Interaction::new(0, 1), Interaction::new(1, 2)];
        let mut s = ReplayScheduler::new(steps.clone());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.next_interaction(3), steps[0]);
        assert_eq!(s.next_interaction(3), steps[1]);
        assert_eq!(s.next_interaction(3), steps[0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn replay_rejects_empty() {
        ReplayScheduler::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn replay_checks_bounds() {
        let mut s = ReplayScheduler::new(vec![Interaction::new(0, 5)]);
        s.next_interaction(3);
    }

    #[test]
    fn round_robin_visits_every_agent() {
        let mut s = RoundRobinScheduler::new();
        let n = 5;
        let mut participations = vec![0u32; n];
        for _ in 0..(n * (n - 1)) {
            let i = s.next_interaction(n);
            assert_ne!(i.initiator, i.responder);
            participations[i.initiator] += 1;
            participations[i.responder] += 1;
        }
        for (agent, &p) in participations.iter().enumerate() {
            assert!(p > 0, "agent {agent} never participated");
        }
    }

    #[test]
    fn round_robin_never_self_interacts_across_phases() {
        let mut s = RoundRobinScheduler::new();
        for _ in 0..10_000 {
            let i = s.next_interaction(6);
            assert_ne!(i.initiator, i.responder);
        }
    }
}
