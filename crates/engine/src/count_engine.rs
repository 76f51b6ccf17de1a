//! The exact count-based simulation engine.
//!
//! Agents in the population-protocol model are anonymous and the interaction
//! graph is complete, so the dynamics depend on the configuration only
//! through its *multiset of states*. This engine exploits that: it interns
//! states, keeps one integer count per state, and samples each ordered
//! interaction directly from the counts:
//!
//! * initiator state `s` with probability `c_s / n`,
//! * responder state `t` with probability `c_t / (n−1)` after virtually
//!   removing the initiator from the urn.
//!
//! This is *exactly* the uniformly random scheduler Γ — no approximation —
//! while using `O(#states)` memory instead of `O(n)` and, as a by-product,
//! counting how many distinct states an execution ever visits (the "number
//! of states" column of the paper's Table 1).
//!
//! # The four execution tiers
//!
//! Both batched drivers ([`run`](CountSimulation::run) and
//! [`run_until_single_leader`](CountSimulation::run_until_single_leader))
//! run one dispatch loop over the [tier controller](crate::tier): periodic
//! reviews pick the cheapest execution strategy for the *current*
//! configuration and re-evaluate as it evolves.
//!
//! 1. **Reference** — the uncached per-step fallback: every interaction
//!    hashes, clones, and calls [`Protocol::transition`]. Only used under
//!    the reference-tier [pin](CountSimulation::pin_tier); it is the
//!    bit-exact oracle the fast paths are tested against.
//! 2. **Compiled** — the hash-free per-step path: a
//!    [compiled pair-transition cache](crate::compiled) makes each
//!    steady-state interaction one table load plus an `O(1)` pair draw,
//!    with convergence bookkeeping riding on cached leader deltas. Same
//!    RNG stream and bit-identical executions whether the cache is on or
//!    off. Up to 2^21 agents the draw reads two uniform distinct positions
//!    of an array of interned state ids (see [the agent
//!    array](#the-agent-array)); past it, it is
//!    [fused pair sampling](pp_rand::SumTreeSampler::sample_pair_distinct)
//!    from the counts (two tree descents).
//! 3. **Jump** — the null-skipping scheduler (see [`crate::jump`]): when
//!    known-null pairs carry at least 7/8 of the scheduler weight, each run of consecutive nulls telescopes into one geometric
//!    draw plus one exact draw from the non-null pair distribution.
//! 4. **Batch** — collision-free hypergeometric rounds (see
//!    [`crate::batch`]): `Θ(√n)`-length runs of pairwise-disjoint
//!    interactions are drawn as multivariate hypergeometric state multisets
//!    and applied in bulk, with the terminating collision executed exactly —
//!    sub-interaction amortized cost for *any* null density whenever the
//!    live support is small against `√n`.
//!
//! Tiers 3 and 4 change no distribution — executions are equal in law,
//! including the exact step counts at which the configuration changes — but
//! they consume the RNG stream differently, so only tiers 1 and 2 are
//! bit-identical to each other. The 4-tier chi-square equivalence suite
//! (`tests/batch_equivalence.rs`) pins the law. The heuristics' thresholds
//! are constants of the [tier module](crate::tier), and populations beyond
//! `2^32 − 1` agents stay per-step: the jump and batch tiers' exact integer
//! pair weights are bounded by `n(n−1)`, which must fit a `u64`.
//!
//! # The agent array
//!
//! Up to 2^21 agents (`AGENT_ARRAY_MAX_POPULATION`) the per-step
//! windows (compiled and reference) keep `agents`, one interned id per
//! agent. One [`pair_targets`](pp_rand::pair_targets) word gives
//! `(ta, tb)`; positions `i = ta` and `j = tb + [tb ≥ ta]` are a uniform
//! ordered pair of distinct agents, so the states read there are drawn
//! exactly as the counts would draw them, whatever the arrangement. A side
//! whose successor differs from its state is written back in place and
//! moves its count in the sum tree's leaves only; an unchanged side (most
//! of them: a null interaction has two) touches neither. The window
//! rebuilds the tree's internal sums once, when it ends. An empty array
//! means stale: jump and batch episodes, compaction and
//! [`step`](CountSimulation::step) move agents by counts alone and clear
//! it, and the next per-step window refills it from the counts in slot
//! order. Construction never allocates it, and populations
//! that only ever run batch rounds never do.
//!
//! # State-id compaction
//!
//! State-unbounded protocols (e.g. an unbounded lottery) intern states
//! forever, but their *live* support is usually tiny. Tier reviews therefore
//! **compact** the id space when enough dead ids have accumulated: live
//! states are renumbered 0.. in descending-count order, the sampler tree
//! shrinks to the live support, the pair cache remaps (dropping entries that
//! touch dead ids), and dead states remain interned only in the seen-state
//! map so [`distinct_states_seen`](CountSimulation::distinct_states_seen)
//! stays exact even when a dead state is later revisited. Compaction is what
//! keeps the fast tiers engaged past the cache's addressable-id cap.

use crate::compiled::{self, PairCache};
use crate::obs::{EngineEvent, EngineMetrics, EngineObserver};
use crate::round::{self, SegmentDraw};
use crate::tier::{self, EngineTier, TierController, TierUsage};
use crate::{
    EngineError, LeaderElection, Protocol, Role, RunOutcome, CONVERGENCE_BATCH, MAX_POPULATION,
};
use pp_rand::{pair_targets, Geometric, Rng64, SumTreeSampler, Xoshiro256PlusPlus};
use std::collections::HashMap;
use std::time::Instant;

/// Sentinel id in the seen-state map for states that were interned at some
/// point but currently hold no agents and no live slot (their old slot was
/// reclaimed by compaction). Re-interning such a state allocates a fresh
/// slot without recounting it as newly distinct.
const DEAD_ID: u32 = u32::MAX;

/// A per-step draw that missed the pair cache: the states `(s, t)` and,
/// on the agent array, their positions `(i, j)`.
#[derive(Debug, Clone, Copy)]
struct Miss {
    s: usize,
    t: usize,
    i: usize,
    j: usize,
}

/// Exact count-based engine; see the module-level documentation above.
///
/// # Example
///
/// ```
/// use pp_engine::{CountSimulation, Protocol, Role, LeaderElection};
/// use pp_rand::Xoshiro256PlusPlus;
///
/// struct Frat;
/// impl Protocol for Frat {
///     type State = bool;
///     type Output = Role;
///     fn initial_state(&self) -> bool { true }
///     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
///         if *a && *b { (true, false) } else { (*a, *b) }
///     }
///     fn output(&self, s: &bool) -> Role {
///         if *s { Role::Leader } else { Role::Follower }
///     }
/// }
/// impl LeaderElection for Frat { fn monotone_leaders(&self) -> bool { true } }
///
/// let rng = Xoshiro256PlusPlus::seed_from_u64(7);
/// let mut sim = CountSimulation::new(Frat, 1_000_000, rng).unwrap();
/// sim.run(100);
/// assert_eq!(sim.population(), 1_000_000);
/// assert!(sim.distinct_states_seen() <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct CountSimulation<P: Protocol, R = Xoshiro256PlusPlus> {
    protocol: P,
    rng: R,
    /// Every state the execution has ever visited, mapped to its live slot
    /// id — or [`DEAD_ID`] when its slot was reclaimed by compaction.
    ids: HashMap<P::State, u32>,
    /// Live states, indexed by slot id (compaction renumbers).
    states: Vec<P::State>,
    outputs: Vec<P::Output>,
    /// 1 for states whose output is the primed leader output, else 0.
    /// All-zero until [`prime_role_tracking`](Self::prime_role_tracking).
    leader_flags: Vec<i8>,
    /// The output value counted as "leader"; `None` until role tracking is
    /// primed (which also backfills `leader_flags` and cached deltas).
    leader_output: Option<P::Output>,
    /// Number of states with a positive count (`support_size` in O(1)).
    support: usize,
    sampler: SumTreeSampler,
    /// One interned id per agent, for per-step windows at populations up to
    /// `tier::AGENT_ARRAY_MAX_POPULATION`; empty when stale or unused (see
    /// the module docs, "The agent array").
    agents: Vec<u32>,
    pairs: PairCache,
    tiers: TierController,
    n: u64,
    steps: u64,
    /// Attached observability hook ([`set_observer`](Self::set_observer));
    /// `None` (the default) costs one predictable branch at episode/review
    /// boundaries and nothing per interaction. Observation consumes no RNG,
    /// so attached and detached twins stay bit-identical.
    obs: Option<Box<EngineObserver>>,
}

impl<P: Protocol, R: Rng64> CountSimulation<P, R> {
    /// Creates a count simulation of `n` agents in the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] when `n < 2` and
    /// [`EngineError::PopulationOverflow`] when `n > i64::MAX`.
    pub fn new(protocol: P, n: usize, rng: R) -> Result<Self, EngineError> {
        if n < 2 {
            return Err(EngineError::PopulationTooSmall { n });
        }
        if n as u64 > MAX_POPULATION {
            return Err(EngineError::PopulationOverflow { total: n as u128 });
        }
        let mut sim = Self::empty(protocol, rng);
        let init = sim.protocol.initial_state();
        let id = sim.intern(init) as usize;
        sim.add_agents(id, n as u64);
        Ok(sim)
    }

    /// Creates a count simulation from explicit state counts.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::PopulationTooSmall`] when counts sum to < 2
    /// and [`EngineError::PopulationOverflow`] when they sum past
    /// `i64::MAX`.
    pub fn from_counts(
        protocol: P,
        counts: impl IntoIterator<Item = (P::State, u64)>,
        rng: R,
    ) -> Result<Self, EngineError> {
        let mut sim = Self::empty(protocol, rng);
        for (state, count) in counts {
            if count == 0 {
                continue;
            }
            if count > MAX_POPULATION - sim.n {
                let total = u128::from(sim.n) + u128::from(count);
                return Err(EngineError::PopulationOverflow { total });
            }
            let id = sim.intern(state) as usize;
            sim.add_agents(id, count);
        }
        if sim.n < 2 {
            return Err(EngineError::PopulationTooSmall { n: sim.n as usize });
        }
        Ok(sim)
    }

    fn empty(protocol: P, rng: R) -> Self {
        Self {
            protocol,
            rng,
            ids: HashMap::new(),
            states: Vec::new(),
            outputs: Vec::new(),
            leader_flags: Vec::new(),
            leader_output: None,
            support: 0,
            sampler: SumTreeSampler::new(0),
            agents: Vec::new(),
            pairs: PairCache::new(),
            tiers: TierController::default(),
            n: 0,
            steps: 0,
            obs: None,
        }
    }

    /// Adds `count` agents to slot `id` (construction-time only).
    fn add_agents(&mut self, id: usize, count: u64) {
        if count > 0 && self.sampler.weights()[id] == 0 {
            self.support += 1;
        }
        self.sampler.add(id, count as i64).expect("slot exists");
        self.n += count;
    }

    fn intern(&mut self, state: P::State) -> u32 {
        if let Some(&id) = self.ids.get(&state) {
            if id != DEAD_ID {
                return id;
            }
            // Seen before, slot reclaimed: allocate a fresh slot below
            // without recounting it in distinct_states_seen.
        }
        let id = self.states.len() as u32;
        debug_assert_ne!(id, DEAD_ID, "live id space exhausted");
        let output = self.protocol.output(&state);
        self.leader_flags
            .push(i8::from(self.leader_output.as_ref() == Some(&output)));
        self.outputs.push(output);
        self.states.push(state.clone());
        self.ids.insert(state, id);
        let slot = self.sampler.push_slot();
        debug_assert_eq!(slot, id as usize);
        self.pairs.ensure_states(self.states.len());
        id
    }

    /// The execution tier the batched drivers are currently dispatching to.
    pub fn active_tier(&self) -> EngineTier {
        if self.tiers.jump.engaged {
            EngineTier::Jump
        } else if self.tiers.batch.engaged {
            EngineTier::Batch
        } else if self.pairs.is_active() {
            EngineTier::Compiled
        } else {
            EngineTier::Reference
        }
    }

    /// Test hook: pins the batched drivers ([`run`](Self::run) and
    /// [`run_until_single_leader`](Self::run_until_single_leader)) to one
    /// execution tier in place of the engage/exit heuristics, for the whole
    /// execution. A pin is set once, before the first interaction:
    ///
    /// * [`Reference`](EngineTier::Reference) — the uncached oracle: every
    ///   step hashes, clones, and calls [`Protocol::transition`]. The cache
    ///   consumes no randomness, so this is bit-identical to the compiled
    ///   pin.
    /// * [`Compiled`](EngineTier::Compiled) — the compiled per-step path;
    ///   jump and batch never engage.
    /// * [`Jump`](EngineTier::Jump) and [`Batch`](EngineTier::Batch) — the
    ///   fast tier engages immediately and stays engaged whatever the
    ///   thresholds say (small populations included). Both are equal in law
    ///   to per-step execution but consume the RNG stream differently.
    ///
    /// Single-[`step`](Self::step) calls always execute per-step.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::LatePin`] once an interaction has executed or
    /// a tier is already pinned, and [`EngineError::PopulationTooLarge`]
    /// when pinning the jump or batch tier on more than `2^32 − 1` agents
    /// (their exact integer pair weights are bounded by `n(n−1)`, which must
    /// fit a `u64`). On error the engine is left unchanged.
    #[doc(hidden)]
    pub fn pin_tier(&mut self, tier: EngineTier) -> Result<(), EngineError> {
        if self.steps > 0 || self.tiers.pin.is_some() {
            return Err(EngineError::LatePin {
                tier,
                steps: self.steps,
            });
        }
        let fast = matches!(tier, EngineTier::Jump | EngineTier::Batch);
        if fast && self.n > tier::BATCH_MAX_POPULATION {
            return Err(EngineError::PopulationTooLarge {
                tier,
                n: self.n,
                max: tier::BATCH_MAX_POPULATION,
            });
        }
        // Before the first interaction nothing is compiled or engaged yet.
        self.tiers.pin = Some(tier);
        match tier {
            EngineTier::Reference => self.pairs.deactivate(),
            EngineTier::Compiled => {}
            EngineTier::Jump => {
                // Episodes trust the ledger's weights exactly.
                self.tiers.jump.ledger.rebuild(self.sampler.weights());
                self.tiers.jump.engaged = true;
            }
            EngineTier::Batch => self.tiers.batch.engaged = true,
        }
        Ok(())
    }

    /// Interactions executed per tier over the whole execution (maintained
    /// at dispatch boundaries whether or not an observer is attached).
    pub fn tier_usage(&self) -> TierUsage {
        self.tiers.usage
    }

    /// Attaches `observer` (replacing any previous one): from here on the
    /// engine records structured [`EngineEvent`]s, per-tier wall-time
    /// accounting, and — if the observer carries a sampler — the
    /// leader/support trajectory of
    /// [`run_until_single_leader`](Self::run_until_single_leader).
    ///
    /// Observation consumes **no randomness** and never changes dispatch:
    /// the observed simulation stays bit-identical (trajectory, step
    /// counts, RNG stream) to a detached twin.
    pub fn set_observer(&mut self, observer: EngineObserver) {
        self.obs = Some(Box::new(observer));
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&EngineObserver> {
        self.obs.as_deref()
    }

    /// Detaches and returns the observer, if any (the simulation reverts to
    /// the unobserved fast path).
    pub fn take_observer(&mut self) -> Option<EngineObserver> {
        self.obs.take().map(|b| *b)
    }

    /// One unified [`EngineMetrics`] snapshot: population, progress, tier
    /// usage, jump/batch counters, cache state, and — when an observer is
    /// attached — event counts and the wall-time timeline. Always
    /// available.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            population: self.n,
            steps: self.steps,
            parallel_time: self.parallel_time(),
            support: self.support as u64,
            distinct_states_seen: self.ids.len() as u64,
            active_tier: self.active_tier(),
            tier_usage: self.tiers.usage,
            jump: self.tiers.jump.stats,
            batch: self.tiers.batch.stats,
            cache_active: self.pairs.is_active(),
            compiled_pairs: self.pairs.compiled_pairs() as u64,
            events_recorded: self.obs.as_deref().map_or(0, |o| o.events().len() as u64),
            events_dropped: self.obs.as_deref().map_or(0, EngineObserver::dropped),
            timeline: self.obs.as_deref().map(|o| *o.timeline()),
        }
    }

    /// Records a tier-transition event when the active tier moved away from
    /// `from` (no-op when detached or unchanged). Called at review/episode
    /// boundaries only.
    fn observe_transition(&mut self, from: EngineTier) {
        let to = self.active_tier();
        if to != from {
            let step = self.steps;
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.record(EngineEvent::TierTransition { step, from, to });
            }
        }
    }

    /// Per-step chunk cap that lands samples exactly on the trajectory
    /// sampler's grid (`u64::MAX` — never binding — when detached or
    /// without a sampler). Only per-step windows are capped: subdividing
    /// them is RNG-invisible, whereas capping a jump/batch episode budget
    /// would change the draws and break bit-identity, so on those tiers
    /// samples land on the first episode boundary at or past each grid
    /// point instead.
    fn sample_window(&self) -> u64 {
        match self.obs.as_deref().and_then(EngineObserver::sampler) {
            Some(s) => s.next_due().saturating_sub(self.steps).max(1),
            None => u64::MAX,
        }
    }

    /// Records a trajectory sample if one is due at the current step (or
    /// unconditionally, deduplicated by step, when `finish` marks a driver
    /// exit). Cold: called at dispatch boundaries on the attached path only.
    #[cold]
    fn sample_trajectory(&mut self, leaders: i64, finish: bool) {
        let (step, support) = (self.steps, self.support as u64);
        if let Some(sampler) = self
            .obs
            .as_deref_mut()
            .and_then(EngineObserver::sampler_mut)
        {
            let due = step >= sampler.next_due();
            let last = sampler.trace().last_step();
            if due || (finish && last != Some(step)) {
                sampler.sample(step, leaders.max(0) as u64, support);
            }
        }
    }

    /// Test hook: [`step`](Self::step) that also returns the drawn ordered
    /// pair of interned state ids, as `(initiator_id, responder_id,
    /// changed)`. The deterministic replay suite uses this to reconstruct
    /// executions pair-for-pair.
    ///
    /// The population invariant (`n ≥ 2`, enforced at construction) makes
    /// the sampling error unreachable; see [`move_agent`](Self::move_agent)
    /// for why it is absorbed without a panic edge.
    #[doc(hidden)]
    #[inline]
    pub fn step_traced(&mut self) -> (usize, usize, bool) {
        let Ok((s, t)) = self.sampler.sample_pair_distinct(&mut self.rng) else {
            debug_assert!(false, "population has >= 2 agents");
            return (0, 0, false);
        };
        self.steps += 1;
        // Per-step execution mutates counts behind the jump scheduler's
        // back; a stale ledger would make the next episode sample against
        // wrong weights, so force a rebuild at its next sync.
        if self.tiers.jump.engaged {
            self.tiers.jump.ledger.mark_dirty();
        }
        self.agents.clear();
        let (changed, _) = self.apply_pair(s, t);
        (s, t, changed)
    }

    /// Test hook: per-state agent counts indexed by interned state id (the
    /// id order used by the jump scheduler's active-pair distribution).
    #[doc(hidden)]
    pub fn raw_counts(&self) -> &[u64] {
        self.sampler.weights()
    }

    /// Re-seeds the ledger's known-null set from already-compiled entries
    /// (after compaction remapped the id space).
    fn reseed_jump_ledger(&mut self) {
        if !self.tiers.tracks_nulls() {
            return;
        }
        let ledger = &mut self.tiers.jump.ledger;
        self.pairs.for_each_filled(|s, t, entry| {
            if compiled::unpack(entry).3 {
                ledger.register(s, t);
            }
        });
    }

    /// The compiled pair-transition cache (inspection only): activity,
    /// saturation, compiled-pair count, and table footprint.
    pub fn pair_cache(&self) -> &PairCache {
        &self.pairs
    }

    /// The population size `n`.
    pub fn population(&self) -> usize {
        self.n as usize
    }

    /// Interactions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The execution clock in parallel time (steps / n).
    pub fn parallel_time(&self) -> f64 {
        crate::parallel_time(self.steps, self.n as usize)
    }

    /// The protocol driving this simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of **distinct states the execution has ever visited** —
    /// the empirical "states used" measure reported in Table 1 experiments.
    /// Exact across compactions: reclaimed states stay in the seen-state
    /// map, so revisiting one does not recount it.
    pub fn distinct_states_seen(&self) -> usize {
        self.ids.len()
    }

    /// Number of distinct states currently occupied by at least one agent.
    ///
    /// Maintained incrementally; this is `O(1)`.
    pub fn support_size(&self) -> usize {
        self.support
    }

    /// A snapshot of all (state, count) pairs with positive count.
    pub fn state_counts(&self) -> HashMap<P::State, u64> {
        let mut out = HashMap::with_capacity(self.support);
        for (i, s) in self.states.iter().enumerate() {
            let w = self.sampler.weights()[i];
            if w > 0 {
                out.insert(s.clone(), w);
            }
        }
        out
    }

    /// Moves one agent from state slot `from` to state slot `to` (free
    /// no-op when `from == to`), folding occupancy changes into the
    /// incremental support count. With `leaf_only` it moves the count in
    /// the sampler's leaves alone, as agent-array windows do until their
    /// closing [`rebuild_sums`](SumTreeSampler::rebuild_sums).
    ///
    /// Interned ids are always in range, so the error arm is unreachable;
    /// it is handled with a debug assertion plus silent no-op rather than a
    /// panic so the hot loop has no unwind edges (panic paths would force
    /// every cached field back to memory at each call).
    #[inline]
    fn move_agent(&mut self, from: usize, to: usize, leaf_only: bool) {
        let moved = if leaf_only {
            self.sampler.transfer_leaf(from, to)
        } else {
            self.sampler.transfer(from, to)
        };
        let Ok(effect) = moved else {
            debug_assert!(false, "interned slots {from}/{to} exist");
            return;
        };
        self.support = self.support + usize::from(effect.populated) - usize::from(effect.emptied);
    }

    /// Compiles the transition of the ordered pair `(s, t)`: runs the real
    /// [`Protocol::transition`], interns the successors, and (when the entry
    /// is representable — the cache can be saturated) stores the packed
    /// entry for every later encounter.
    ///
    /// This is the **only** place the protocol's transition is evaluated;
    /// when the cache is off (reference pin) or saturated past the pair's
    /// ids it simply runs once per encounter.
    ///
    /// Marked cold and never-inlined: with the cache active this is off the
    /// steady-state path, so its hashing and interning machinery stays out
    /// of the hot loops' code.
    #[cold]
    #[inline(never)]
    fn compile_pair(&mut self, s: usize, t: usize) -> (usize, usize, i8, bool) {
        let (na, nb) = self.protocol.transition(&self.states[s], &self.states[t]);
        let a = self.intern(na) as usize;
        let b = self.intern(nb) as usize;
        let delta = self.leader_flags[a] + self.leader_flags[b]
            - self.leader_flags[s]
            - self.leader_flags[t];
        let null = a == s && b == t;
        // Feed the jump scheduler's known-null set as pairs compile (only
        // stored pairs: the ledger must stay a subset of the cache so
        // reseeding after compaction reconstructs it); weights stay stale
        // (dirty) until the next probe/episode.
        if self.pairs.store(s, t, a, b, delta, null) && null && self.tiers.tracks_nulls() {
            self.tiers.jump.ledger.register(s, t);
        }
        (a, b, delta, null)
    }

    /// The compiled effect of the ordered pair `(s, t)` — `(a, b,
    /// leader_delta, is_null)` — compiling on a cache miss. Does **not**
    /// move agents (the batch tier applies effects to its urns instead).
    #[inline]
    fn pair_effect(&mut self, s: usize, t: usize) -> (usize, usize, i8, bool) {
        let entry = self.pairs.get(s, t);
        if entry == compiled::EMPTY {
            self.compile_pair(s, t)
        } else {
            compiled::unpack(entry)
        }
    }

    /// Applies the interaction of the ordered pair `(s, t)` and returns
    /// `(changed, leader_delta)`.
    #[inline]
    fn apply_pair(&mut self, s: usize, t: usize) -> (bool, i8) {
        let (a, b, delta, null) = self.pair_effect(s, t);
        // Self-transfers fall out of the lockstep walk for free, so no
        // branching on which side changed.
        self.move_agent(s, a, false);
        self.move_agent(t, b, false);
        (!null, delta)
    }

    /// Executes one interaction (never jumping); returns `true` if any
    /// state count changed.
    #[inline]
    pub fn step(&mut self) -> bool {
        self.step_traced().2
    }

    /// The tier-review interval: short enough to catch small populations
    /// entering a null-dominated or small-support phase within a run, and
    /// scaled with the ledger size so the `O(m)` rebuild a jump probe
    /// performs stays a vanishing fraction of the work between reviews.
    fn review_interval(&self) -> u64 {
        self.n
            .min(CONVERGENCE_BATCH)
            .max(4 * self.tiers.jump.ledger.len() as u64)
    }

    /// Tier review, run at batch boundaries of the batched drivers:
    /// compacts the id space when enough dead ids accumulated, probes jump
    /// engagement against the current null weights, and applies the batch
    /// tier's engage/disengage heuristics.
    fn review_tiers(&mut self) {
        if self.steps < self.tiers.review_at {
            return;
        }
        self.tiers.review_at = self.steps + self.review_interval();
        if self.compaction_due() {
            self.compact_states();
        }
        self.probe_jump();
        self.review_batch();
    }

    /// Whether enough permanently-dead ids accumulated to warrant a
    /// compaction pass. The threshold scales with the live support so small
    /// protocols compact early (shrinking the sampler tree and pair table)
    /// while state-unbounded protocols compact in `O(support)`-sized
    /// amortized slices; the jump pin skips compaction because pinned
    /// episodes trust ledger ids across calls.
    fn compaction_due(&self) -> bool {
        if self.tiers.pin == Some(EngineTier::Jump) {
            return false;
        }
        let dead = (self.states.len() - self.support) as u64;
        self.states.len() >= 64 && dead >= 48.max((self.support as u64).min(1024))
    }

    /// Renumbers live states 0.. in descending-count order, shrinking the
    /// sampler tree to the live support, remapping the pair cache, and
    /// demoting dead states to seen-only map entries. Consumes no
    /// randomness and depends only on the counts, so cached and uncached
    /// twins compact identically and stay bit-identical.
    fn compact_states(&mut self) {
        let live_before = self.states.len() as u64;
        let weights = self.sampler.weights();
        let mut live: Vec<u32> = (0..self.states.len() as u32)
            .filter(|&i| weights[i as usize] > 0)
            .collect();
        // Largest counts first: a saturated cache then covers the heavy
        // states, and the sampler tree's hot descents shorten.
        round::sort_descending(&mut live, |i| weights[i as usize]);
        let mut map = vec![DEAD_ID; self.states.len()];
        for (new, &old) in live.iter().enumerate() {
            map[old as usize] = new as u32;
        }
        let mut new_states = Vec::with_capacity(live.len());
        let mut new_outputs = Vec::with_capacity(live.len());
        let mut new_flags = Vec::with_capacity(live.len());
        let mut new_weights = Vec::with_capacity(live.len());
        for &old in &live {
            let o = old as usize;
            new_states.push(self.states[o].clone());
            new_outputs.push(self.outputs[o].clone());
            new_flags.push(self.leader_flags[o]);
            new_weights.push(weights[o]);
        }
        for id in self.ids.values_mut() {
            if *id != DEAD_ID {
                *id = map[*id as usize];
            }
        }
        debug_assert_eq!(self.support, live.len());
        self.states = new_states;
        self.outputs = new_outputs;
        self.leader_flags = new_flags;
        self.sampler = SumTreeSampler::from_weights(&new_weights).expect("population is non-empty");
        self.agents.clear();
        self.pairs.compact(&map, live.len());
        self.pairs.ensure_states(self.states.len());
        // Ledger ids are stale: drop and reseed from the compacted cache.
        // Engagement re-probes immediately (the caller reviews jump next).
        self.tiers.jump.ledger.clear();
        self.tiers.jump.engaged = false;
        self.reseed_jump_ledger();
        let (step, live_after) = (self.steps, self.states.len() as u64);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.record(EngineEvent::Compaction {
                step,
                live_before,
                live_after,
            });
        }
    }

    /// Jump engagement probe (heuristic dispatch only): rebuilds the
    /// ledger's weights against the current counts and engages when
    /// known-null pairs carry at least `1 − 1/JUMP_ENGAGE_FACTOR` of the
    /// total scheduler weight.
    fn probe_jump(&mut self) {
        let jump = &self.tiers.jump;
        if self.tiers.pin.is_some() || jump.engaged || jump.ledger.is_empty() {
            return;
        }
        if self.n > tier::BATCH_MAX_POPULATION {
            // W_total = n(n−1) must fit u64 for exact integer pair sampling.
            return;
        }
        self.tiers.jump.ledger.rebuild(self.sampler.weights());
        let w_total = self.n * (self.n - 1);
        let w_active = w_total - self.tiers.jump.ledger.w_null();
        if w_active.saturating_mul(tier::JUMP_ENGAGE_FACTOR) <= w_total {
            self.tiers.jump.engaged = true;
            let step = self.steps;
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.record(EngineEvent::JumpEngage {
                    step,
                    w_active,
                    w_total,
                });
            }
        }
    }

    /// Batch engage/disengage heuristics (heuristic dispatch only; see
    /// [`crate::tier`]). A pin fixes the flag when it is set, and the jump
    /// scheduler, when engaged, preempts batch in dispatch regardless of it.
    fn review_batch(&mut self) {
        if self.tiers.pin.is_some() {
            return;
        }
        let batch = &mut self.tiers.batch;
        let was = batch.engaged;
        if was {
            if tier::batch_exits(self.support, self.n) {
                batch.engaged = false;
            }
        } else if tier::batch_engages(self.support, self.n) {
            batch.engaged = true;
        }
        let now = self.tiers.batch.engaged;
        if now != was {
            let (step, support) = (self.steps, self.support as u64);
            let expected_run = tier::expected_run_length(self.n);
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.record(if now {
                    EngineEvent::BatchEngage {
                        step,
                        support,
                        expected_run,
                    }
                } else {
                    EngineEvent::BatchExit {
                        step,
                        support,
                        expected_run,
                    }
                });
            }
        }
    }

    /// Executes one jump episode against the current configuration (see
    /// [`crate::jump`]): telescopes the geometric run of known-null draws in
    /// `O(1)`, then draws one interaction from the active-candidate
    /// distribution and executes it. Consumes at most `max` interactions
    /// (`max > 0` required); returns `(consumed, leader_delta)`, where the
    /// delta is the executed interaction's cached leader-count change — or 0
    /// when the budget ran out inside the null run, which leaves the
    /// configuration untouched by construction.
    fn jump_episode(&mut self, max: u64) -> (u64, i8) {
        debug_assert!(max > 0);
        self.tiers.jump.ledger.sync(self.sampler.weights());
        let w_total = self.n * (self.n - 1);
        let w_null = self.tiers.jump.ledger.w_null();
        let w_active = w_total - w_null;
        if w_active == 0 {
            // Every realizable ordered pair is known-null: the configuration
            // is silent and the remaining budget telescopes away whole.
            self.steps += max;
            self.tiers.jump.stats.skipped += max;
            return (max, 0);
        }
        let skip = if w_null == 0 {
            0
        } else {
            let p = w_active as f64 / w_total as f64;
            Geometric::new(p)
                .expect("w_active in (0, w_total] gives p in (0, 1]")
                .sample(&mut self.rng)
        };
        if skip >= max {
            self.steps += max;
            self.tiers.jump.stats.skipped += max;
            return (max, 0);
        }
        self.tiers.jump.stats.skipped += skip;
        self.tiers.jump.stats.episodes += 1;
        self.steps += skip + 1;
        let u = self.rng.below(w_active);
        let (s, t) = self
            .tiers
            .jump
            .ledger
            .sample_active(self.sampler.weights(), self.n, u);
        let (a, b, delta, null) = self.pair_effect(s, t);
        self.move_agent(s, a, false);
        self.move_agent(t, b, false);
        if !null {
            self.agents.clear();
        }
        // Resync the null weights of pairs touching the states whose counts
        // changed (idempotent per state, so shared pairs need no dedup). A
        // dirty ledger — compile_pair discovered a fresh null — rebuilds on
        // the next episode instead.
        if !null && !self.tiers.jump.ledger.is_dirty() {
            let Self { tiers, sampler, .. } = self;
            let counts = sampler.weights();
            tiers.jump.ledger.on_count_change(s, counts);
            tiers.jump.ledger.on_count_change(a, counts);
            tiers.jump.ledger.on_count_change(t, counts);
            tiers.jump.ledger.on_count_change(b, counts);
        }
        if self.tiers.pin.is_none() {
            let w_active_now = w_total - self.tiers.jump.ledger.w_null();
            if w_active_now.saturating_mul(tier::JUMP_EXIT_FACTOR) > w_total {
                self.tiers.jump.engaged = false;
                self.tiers.review_at = self.steps + self.review_interval();
                let (step, stats) = (self.steps, self.tiers.jump.stats);
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.record(EngineEvent::JumpDisengage {
                        step,
                        w_active: w_active_now,
                        w_total,
                        episodes: stats.episodes,
                        skipped: stats.skipped,
                    });
                }
            }
        }
        (skip + 1, delta)
    }

    /// Executes one batch episode (see [`crate::batch`] and
    /// [`crate::round`]): samples the maximal collision-free prefix (capped
    /// at `max`, which must be positive), applies it in bulk from the
    /// two-urn decomposition, and executes the terminating collision
    /// interaction individually when it falls inside the budget. Returns
    /// `(consumed, hit)`; with `leaders` supplied the running count is
    /// maintained exactly, and a segment that could touch a count of 1 is
    /// resolved by the exact shuffled walk, stopping (and discarding the
    /// unexecuted tail) at the precise hitting step.
    fn batch_episode(&mut self, max: u64, mut leaders: Option<&mut i64>) -> (u64, bool) {
        debug_assert!(max > 0);
        let mut scratch = std::mem::take(&mut self.tiers.batch.scratch);
        scratch.begin(self.sampler.weights());
        let mut hit = false;
        let (bulk, collide) = round::collision_free_prefix(&mut self.rng, self.n, max);
        // The leader count can touch 1 inside the segment only within ±2
        // per interaction of its entry value; segments that provably cannot
        // skip the walk and apply pure bulk deltas.
        let walk = leaders
            .as_deref()
            .is_some_and(|&l| (l - 1).unsigned_abs() <= 2 * bulk);
        if walk {
            self.tiers.batch.stats.exact_walks += 1;
        }
        let draw = round::draw_segment(
            &mut scratch,
            &mut self.rng,
            bulk,
            walk,
            &mut self.tiers.batch.stats,
        );
        let mut executed = 0u64;
        match draw {
            SegmentDraw::Sequences => {
                let bulk = bulk as usize;
                for i in 0..bulk {
                    let s = scratch.seq[i] as usize;
                    let t = scratch.seq[bulk + i] as usize;
                    let (a, b, delta, _) = self.pair_effect(s, t);
                    scratch.ensure_states(self.states.len());
                    scratch.add_used(a);
                    scratch.add_used(b);
                    executed += 1;
                    if let Some(l) = leaders.as_deref_mut() {
                        *l += i64::from(delta);
                        if walk && delta != 0 && *l == 1 {
                            hit = true;
                            // Return the reserved-but-unexecuted tail to the
                            // fresh urn; those agents never interacted.
                            for j in i + 1..bulk {
                                let init = scratch.seq[j] as usize;
                                scratch.return_fresh(init);
                                let resp = scratch.seq[bulk + j] as usize;
                                scratch.return_fresh(resp);
                            }
                            break;
                        }
                    }
                }
            }
            SegmentDraw::Cells => {
                // Aggregated apply: `c` identical interactions collapse into
                // one cache lookup and one urn update per side. `walk`
                // forces Sequences, so no hitting-step check is needed
                // here — the count provably stays away from 1.
                debug_assert!(!walk);
                for idx in 0..scratch.cells.len() {
                    let (s, t, c) = scratch.cells[idx];
                    let (a, b, delta, _) = self.pair_effect(s as usize, t as usize);
                    scratch.ensure_states(self.states.len());
                    scratch.add_used_n(a, c);
                    scratch.add_used_n(b, c);
                    executed += c;
                    if let Some(l) = leaders.as_deref_mut() {
                        *l += i64::from(delta) * c as i64;
                    }
                }
            }
        }
        let mut consumed = executed;
        let collided = collide && !hit;
        if collided {
            // The terminating interaction touches at least one used agent.
            // Used agents are exchangeable given their counts, so the
            // participants are drawn from exact integer category weights
            // over (used, fresh) ordered pairs, excluding fresh-fresh.
            debug_assert_eq!(executed, bulk);
            let used = scratch.used_total;
            let fresh = scratch.fresh_total;
            let w_uu = used * (used - 1);
            let w_uf = used * fresh;
            let pick = self.rng.below(w_uu + 2 * w_uf);
            let (iu, ru) = if pick < w_uu {
                (true, true)
            } else if pick < w_uu + w_uf {
                (true, false)
            } else {
                (false, true)
            };
            let s = scratch.draw_one(&mut self.rng, iu);
            let t = scratch.draw_one(&mut self.rng, ru);
            let (a, b, delta, _) = self.pair_effect(s, t);
            scratch.ensure_states(self.states.len());
            scratch.add_used(a);
            scratch.add_used(b);
            consumed += 1;
            self.tiers.batch.stats.collision_interactions += 1;
            if let Some(l) = leaders {
                *l += i64::from(delta);
                hit = *l == 1 && delta != 0;
            }
        }
        // Merge the urns back into the sampler counts.
        let states = self.states.len();
        scratch.ensure_states(states);
        for id in 0..states {
            let new = scratch.fresh[id] + scratch.used[id];
            let old = self.sampler.weights()[id];
            if new != old {
                self.sampler
                    .add(id, new as i64 - old as i64)
                    .expect("slot exists");
                self.support = self.support + usize::from(old == 0) - usize::from(new == 0);
            }
        }
        self.agents.clear();
        self.steps += consumed;
        let stats = &mut self.tiers.batch.stats;
        stats.episodes += 1;
        stats.bulk_interactions += executed;
        self.tiers.batch.scratch = scratch;
        // Counts changed wholesale behind the jump ledger's back.
        if !self.tiers.jump.ledger.is_empty() {
            self.tiers.jump.ledger.mark_dirty();
        }
        let step = self.steps;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.record(EngineEvent::BatchEpisode {
                step,
                bulk: executed,
                collision: collided,
                walked: walk,
            });
        }
        (consumed, hit)
    }

    /// Executes exactly `steps` interactions.
    ///
    /// Dispatches through the tier controller: jump episodes wherever the
    /// scheduler is engaged, batch rounds wherever the batch tier is, and
    /// compiled per-step chunks otherwise, with tier reviews at batch
    /// boundaries (see the module docs for the tier taxonomy).
    pub fn run(&mut self, steps: u64) {
        self.drive(self.steps.saturating_add(steps), None);
    }

    /// The dispatch loop behind every batched driver: runs until `end`
    /// total interactions, or — with `leaders` supplied — until the running
    /// leader count hits exactly 1, with [`steps`](Self::steps) exact at
    /// the hitting step on every tier.
    ///
    /// Each iteration reviews the tiers and dispatches one jump episode,
    /// one batch episode, or one per-step window. Episode budgets run to
    /// `end`, so they are part of the trajectory; per-step windows end at
    /// the next review (and, when tracking leaders, every
    /// [`CONVERGENCE_BATCH`] steps and on the trajectory sampler's grid),
    /// and subdividing them is invisible to the RNG.
    ///
    /// Always inlined, so `leaders` is a compile-time constant in each
    /// driver: `run` keeps the leader bookkeeping out of its episode and
    /// per-step loops (measured ~5% of `P_LL` throughput when shared).
    #[inline(always)]
    fn drive(&mut self, end: u64, mut leaders: Option<&mut i64>) {
        let watched = self.obs.is_some();
        // The monotonic clock is read once per dispatch, after its
        // bookkeeping, and the whole interval since the previous read —
        // review, dispatch and bookkeeping — is charged to the tier just
        // dispatched, so the timeline's spans tile the loop's wall time.
        let mut clock = watched.then(Instant::now);
        while self.steps < end && leaders.as_deref() != Some(&1) {
            // Observation work happens only here, at dispatch boundaries:
            // one branch on the detached path, tier-transition events plus
            // monotonic-clock spans on the attached one. Neither touches
            // the RNG, so attached/detached twins stay bit-identical.
            let before = watched.then(|| self.active_tier());
            self.review_tiers();
            if let Some(from) = before {
                self.observe_transition(from);
            }
            let budget = end - self.steps;
            let tier = self.active_tier();
            let consumed = match tier {
                EngineTier::Jump => {
                    // Null interactions cannot change the leader count, so
                    // the telescoped run needs no bookkeeping; the episode's
                    // one executed interaction reports its cached delta.
                    let (consumed, delta) = self.jump_episode(budget);
                    if let Some(l) = leaders.as_deref_mut() {
                        *l += i64::from(delta);
                    }
                    consumed
                }
                EngineTier::Batch => self.batch_episode(budget, leaders.as_deref_mut()).0,
                EngineTier::Compiled | EngineTier::Reference => {
                    let window = budget
                        .min(self.tiers.review_at.saturating_sub(self.steps))
                        .max(1);
                    match leaders.as_deref_mut() {
                        Some(l) => {
                            let window = window.min(CONVERGENCE_BATCH).min(self.sample_window());
                            self.leader_chunk::<true>(window, l)
                        }
                        None => self.leader_chunk::<false>(window, &mut 0),
                    }
                }
            };
            self.tiers.usage.note(tier, consumed);
            if let Some(last) = clock.as_mut() {
                if tier == EngineTier::Jump {
                    self.observe_transition(tier);
                }
                if let Some(&l) = leaders.as_deref() {
                    self.sample_trajectory(l, false);
                }
                let now = Instant::now();
                let seconds = now.duration_since(*last).as_secs_f64();
                *last = now;
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.timeline_mut().note(tier, consumed, seconds);
                }
            }
            // Sampled invariant check: once per dispatch, not per step.
            debug_assert!(leaders
                .as_deref()
                .map_or(true, |&l| l == self.output_leaders()));
        }
    }

    /// Executes up to `max` interactions (`max > 0`) on the per-step path
    /// and returns how many ran. With `TRACK`, each interaction's cached
    /// `leader_delta` is folded into `leaders` and the window stops the
    /// moment the count hits exactly 1, with [`steps`](Self::steps) exact;
    /// without it, `leaders` is untouched.
    ///
    /// Up to `AGENT_ARRAY_MAX_POPULATION` agents the window steps on the
    /// agent array (refilled first if stale) and rebuilds the sum tree's
    /// internal sums once at its end; larger populations descend the tree.
    ///
    /// The inner loop ([`compiled_steps`](Self::compiled_steps)) holds
    /// every hot field through *split borrows* and calls nothing that takes
    /// `&mut self`, so the interning [`compile_pair`](Self::compile_pair)
    /// runs outside it. That keeps the loop's step and support counts,
    /// which are locals, in registers across the window. The RNG words are
    /// not: [`pair_targets`] passes `&mut rng` to its out-of-line rejection
    /// path and, for totals above 2^32, to [`Rng64::below`], so the release
    /// build loads and stores the four xoshiro words on every interaction,
    /// and reloads the pair cache's and the sampler's fields too. A miss
    /// still consumes its RNG draw, so the drawn pair is carried out of the
    /// loop and completed through the compile path before the loop resumes.
    fn leader_chunk<const TRACK: bool>(&mut self, max: u64, leaders: &mut i64) -> u64 {
        let array = self.n <= tier::AGENT_ARRAY_MAX_POPULATION;
        if array && self.agents.is_empty() {
            let Self {
                agents, sampler, ..
            } = self;
            agents.reserve_exact(sampler.total() as usize);
            for (id, &count) in sampler.weights().iter().enumerate() {
                agents.extend(std::iter::repeat(id as u32).take(count as usize));
            }
        }
        let start = self.steps;
        let mut count = *leaders;
        loop {
            let budget = max - (self.steps - start);
            let (done, pending) = if array {
                self.compiled_steps::<TRACK, true>(budget, &mut count)
            } else {
                self.compiled_steps::<TRACK, false>(budget, &mut count)
            };
            self.steps += done;
            // No pending miss: the window is exhausted or the count hit 1.
            let Some(miss) = pending else { break };
            self.steps += 1;
            let (a, b, delta, _) = self.compile_pair(miss.s, miss.t);
            for (from, to, at) in [(miss.s, a, miss.i), (miss.t, b, miss.j)] {
                if from != to {
                    if array {
                        self.agents[at] = to as u32;
                    }
                    self.move_agent(from, to, array);
                }
            }
            if TRACK && delta != 0 {
                count += i64::from(delta);
            }
            if (TRACK && count == 1) || self.steps - start == max {
                break;
            }
        }
        if array {
            self.sampler.rebuild_sums();
        }
        *leaders = count;
        self.steps - start
    }

    /// The inner loop of [`leader_chunk`](Self::leader_chunk): runs
    /// compiled steps until `budget` is spent, the count hits 1, or a cache
    /// miss, which it returns. With `ARRAY` a step reads two positions of
    /// the agent array and moves counts in the sampler's leaves only;
    /// without it, a fused pair draw (two tree descents) picks the states
    /// and leaf-to-root transfers move them. Either way only the sides
    /// whose state changes are written.
    #[inline(always)]
    fn compiled_steps<const TRACK: bool, const ARRAY: bool>(
        &mut self,
        budget: u64,
        count: &mut i64,
    ) -> (u64, Option<Miss>) {
        let Self {
            sampler,
            rng,
            pairs,
            support,
            agents,
            n,
            ..
        } = self;
        let mut sup = *support;
        let mut done = 0u64;
        let mut pending = None;
        while done < budget {
            let (s, t, i, j) = if ARRAY {
                let (ta, tb) = pair_targets(rng, *n);
                let (i, j) = (ta as usize, (tb + u64::from(tb >= ta)) as usize);
                let (Some(&s), Some(&t)) = (agents.get(i), agents.get(j)) else {
                    debug_assert!(false, "positions lie below n");
                    break;
                };
                (s as usize, t as usize, i, j)
            } else {
                let Ok((s, t)) = sampler.sample_pair_distinct(rng) else {
                    debug_assert!(false, "population has >= 2 agents");
                    break;
                };
                (s, t, 0, 0)
            };
            let entry = pairs.get(s, t);
            if entry == compiled::EMPTY {
                pending = Some(Miss { s, t, i, j });
                break;
            }
            let (a, b, delta, _) = compiled::unpack(entry);
            // Most interactions are null or change one side; an unchanged
            // side is skipped outright (no store, no leaf move), which
            // keeps the hot leaves out of a store-to-load chain.
            let mut side = |from: usize, to: usize, at: usize| {
                if from == to {
                    return;
                }
                let moved = if ARRAY {
                    agents[at] = to as u32;
                    sampler.transfer_leaf(from, to)
                } else {
                    sampler.transfer(from, to)
                };
                let Ok(e) = moved else {
                    debug_assert!(false, "interned slots exist");
                    return;
                };
                sup = sup + usize::from(e.populated) - usize::from(e.emptied);
            };
            side(s, a, i);
            side(t, b, j);
            done += 1;
            if TRACK && delta != 0 {
                *count += i64::from(delta);
                if *count == 1 {
                    break;
                }
            }
        }
        *support = sup;
        (done, pending)
    }

    /// The leader count read from the protocol outputs, independently of
    /// the leader flags and the cached deltas built from them (debug
    /// invariant checks of the dispatch loop).
    fn output_leaders(&self) -> i64 {
        let leader = self.leader_output.as_ref();
        self.outputs
            .iter()
            .zip(self.sampler.weights())
            .filter(|&(output, _)| Some(output) == leader)
            .map(|(_, &w)| w as i64)
            .sum()
    }
}

impl<P: LeaderElection, R: Rng64> CountSimulation<P, R> {
    /// Counts the current leaders in `O(#states)`.
    pub fn leader_count(&self) -> u64 {
        (0..self.states.len())
            .filter(|&i| self.outputs[i] == Role::Leader)
            .map(|i| self.sampler.weights()[i])
            .sum()
    }

    /// Primes per-state leader flags (and retrofits the leader deltas of any
    /// already-compiled pairs) so convergence loops can read each step's
    /// leader-count change straight from the cache.
    fn prime_role_tracking(&mut self) {
        if self.leader_output.is_some() {
            return;
        }
        self.leader_output = Some(Role::Leader);
        for i in 0..self.states.len() {
            self.leader_flags[i] = i8::from(self.outputs[i] == Role::Leader);
        }
        let flags = &self.leader_flags;
        self.pairs.for_each_filled_mut(|s, t, entry| {
            let (a, b, _, null) = compiled::unpack(*entry);
            let delta = flags[a] + flags[b] - flags[s] - flags[t];
            *entry = compiled::pack(a, b, delta, null);
        });
    }

    /// Runs until exactly one leader remains (see
    /// [`Simulation::run_until_single_leader`](crate::Simulation::run_until_single_leader)
    /// for the stabilization-time caveat).
    ///
    /// The leader count is maintained from the cached `leader_delta` of each
    /// compiled pair — two integer ops per step — and the step-budget check
    /// runs once per batch, not once per step. The returned step count is
    /// still exact on every tier: per-step chunks check at each step that
    /// changes the count, jump episodes report their one executed
    /// interaction's delta, and batch rounds that could touch a count of 1
    /// resolve through the exact shuffled walk.
    pub fn run_until_single_leader(&mut self, max_steps: u64) -> RunOutcome {
        self.prime_role_tracking();
        let mut leaders = self.leader_count() as i64;
        // Trajectory samples cover the entry configuration and the exit:
        // the trace's last row always matches the reported outcome,
        // grid-aligned or not.
        if self.obs.is_some() {
            self.sample_trajectory(leaders, true);
        }
        self.drive(max_steps, Some(&mut leaders));
        if self.obs.is_some() {
            self.sample_trajectory(leaders, true);
        }
        RunOutcome {
            steps: self.steps,
            converged: leaders == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, UniformScheduler};
    use pp_rand::SeedSequence;

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

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    #[test]
    fn population_is_conserved() {
        let mut sim = CountSimulation::new(Frat, 100, rng(1)).unwrap();
        for _ in 0..1000 {
            sim.step();
            let total: u64 = sim.state_counts().values().sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn leader_count_decreases_to_one() {
        let mut sim = CountSimulation::new(Frat, 500, rng(2)).unwrap();
        let outcome = sim.run_until_single_leader(100_000_000);
        assert!(outcome.converged);
        assert_eq!(sim.leader_count(), 1);
        assert_eq!(sim.distinct_states_seen(), 2);
        assert_eq!(sim.support_size(), 2);
    }

    #[test]
    fn rejects_tiny_population() {
        assert!(CountSimulation::new(Frat, 1, rng(0)).is_err());
        assert!(CountSimulation::from_counts(Frat, [(true, 1)], rng(0)).is_err());
    }

    #[test]
    fn rejects_populations_past_i64_max() {
        let overflow = |r: Result<CountSimulation<Frat, _>, EngineError>| match r {
            Err(EngineError::PopulationOverflow { total }) => total,
            other => panic!("expected PopulationOverflow, got {:?}", other.map(|s| s.n)),
        };
        let max = i64::MAX as u64;
        assert_eq!(
            overflow(CountSimulation::new(Frat, 1 << 63, rng(0))),
            1 << 63
        );
        let almost = usize::MAX - 1;
        assert_eq!(
            overflow(CountSimulation::new(Frat, almost, rng(0))),
            almost as u128
        );
        for (counts, total) in [
            (vec![(true, 1u64 << 63)], 1u128 << 63),
            (
                vec![(true, u64::MAX - 1), (false, 5)],
                u128::from(u64::MAX - 1),
            ),
            (vec![(true, max - 4), (false, 5)], u128::from(max) + 1),
            (
                vec![(true, u64::MAX), (false, u64::MAX)],
                u128::from(u64::MAX),
            ),
            (
                vec![(true, max), (false, 0), (false, 1)],
                u128::from(max) + 1,
            ),
        ] {
            assert_eq!(
                overflow(CountSimulation::from_counts(Frat, counts, rng(0))),
                total
            );
        }
        let sim = CountSimulation::new(Frat, max as usize, rng(0)).unwrap();
        assert_eq!(sim.population() as u64, max);
        let counts = [(true, max - 5), (false, 5)];
        let sim = CountSimulation::from_counts(Frat, counts, rng(0)).unwrap();
        assert_eq!(sim.population() as u64, max);
    }

    #[test]
    fn from_counts_sets_up_configuration() {
        let sim = CountSimulation::from_counts(Frat, [(true, 3), (false, 7)], rng(3)).unwrap();
        assert_eq!(sim.population(), 10);
        assert_eq!(sim.leader_count(), 3);
        let counts = sim.state_counts();
        assert_eq!((counts[&true], counts[&false]), (3, 7));
        assert_eq!(sim.support_size(), 2);
    }

    #[test]
    fn from_counts_ignores_zero_entries() {
        let sim = CountSimulation::from_counts(Frat, [(true, 2), (false, 0)], rng(4)).unwrap();
        assert_eq!(sim.population(), 2);
        assert_eq!(sim.distinct_states_seen(), 1);
        assert_eq!(sim.support_size(), 1);
    }

    #[test]
    fn agrees_with_agent_engine_distributionally() {
        // Mean convergence time of fratricide over seeds should agree between
        // engines (both simulate the same Markov chain exactly). Theory:
        // E[steps] = sum_{k=2..n} n(n-1)/(k(k-1)) ≈ n^2 * (1 - 1/n).
        let n = 64;
        let seeds = SeedSequence::new(99);
        let runs = 40;
        let mean = |use_count: bool| -> f64 {
            let mut total = 0u64;
            for i in 0..runs {
                let seed = seeds.seed_at(i);
                let steps = if use_count {
                    let mut sim = CountSimulation::new(Frat, n, rng(seed)).unwrap();
                    sim.run_until_single_leader(u64::MAX).steps
                } else {
                    let sched = UniformScheduler::seed_from_u64(seed);
                    let mut sim = Simulation::new(Frat, n, sched).unwrap();
                    sim.run_until_single_leader(u64::MAX).steps
                };
                total += steps;
            }
            total as f64 / runs as f64
        };
        let m_agent = mean(false);
        let m_count = mean(true);
        let theory: f64 = (2..=n as u64)
            .map(|k| (n as f64) * (n as f64 - 1.0) / (k as f64 * (k as f64 - 1.0)))
            .sum();
        // Loose agreement (Monte-Carlo with 40 runs): within 25% of theory.
        assert!(
            (m_agent / theory - 1.0).abs() < 0.25,
            "agent engine mean {m_agent} vs theory {theory}"
        );
        assert!(
            (m_count / theory - 1.0).abs() < 0.25,
            "count engine mean {m_count} vs theory {theory}"
        );
    }

    /// A protocol with unbounded state growth to exercise interning.
    #[derive(Debug, Clone, Copy)]
    struct Counter;

    impl Protocol for Counter {
        type State = u32;
        type Output = u32;
        fn initial_state(&self) -> u32 {
            0
        }
        fn transition(&self, a: &u32, b: &u32) -> (u32, u32) {
            (a + 1, *b)
        }
        fn output(&self, s: &u32) -> u32 {
            *s
        }
    }

    #[test]
    fn interning_tracks_distinct_states() {
        let mut sim = CountSimulation::new(Counter, 10, rng(5)).unwrap();
        sim.run(100);
        assert!(sim.distinct_states_seen() > 1);
        let total: u64 = sim.state_counts().values().sum();
        assert_eq!(total, 10);
        assert_eq!(sim.steps(), 100);
    }

    #[test]
    fn parallel_time_matches_steps() {
        let mut sim = CountSimulation::new(Frat, 50, rng(6)).unwrap();
        sim.run(100);
        assert!((sim.parallel_time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_support_matches_snapshot() {
        let mut sim = CountSimulation::new(Counter, 16, rng(7)).unwrap();
        for _ in 0..500 {
            sim.step();
            assert_eq!(sim.support_size(), sim.state_counts().len());
        }
    }

    #[test]
    fn cached_and_uncached_runs_are_bit_identical() {
        // The compiled cache consumes no randomness, so the cached and
        // uncached engines must agree on every count at every single step.
        for seed in 0..4 {
            let mut cached = CountSimulation::new(Frat, 64, rng(seed)).unwrap();
            let mut reference = CountSimulation::new(Frat, 64, rng(seed)).unwrap();
            reference.pin_tier(EngineTier::Reference).unwrap();
            assert!(cached.pair_cache().is_active());
            assert!(!reference.pair_cache().is_active());
            for _ in 0..2000 {
                assert_eq!(cached.step(), reference.step());
                assert_eq!(cached.state_counts(), reference.state_counts());
                assert_eq!(cached.support_size(), reference.support_size());
            }
        }
    }

    #[test]
    fn cached_and_uncached_convergence_steps_agree() {
        // Bit-exact comparison, so the cached side is pinned to the compiled
        // tier (jump and batch consume the RNG stream differently); their
        // own equivalence-in-law suites live in tests/jump_equivalence.rs
        // and tests/batch_equivalence.rs.
        let mut cached = CountSimulation::new(Frat, 200, rng(11)).unwrap();
        cached.pin_tier(EngineTier::Compiled).unwrap();
        let mut reference = CountSimulation::new(Frat, 200, rng(11)).unwrap();
        reference.pin_tier(EngineTier::Reference).unwrap();
        let a = cached.run_until_single_leader(u64::MAX);
        let b = reference.run_until_single_leader(u64::MAX);
        assert_eq!(a, b);
        assert_eq!(cached.leader_count(), 1);
    }

    /// A leader bit and one of four colors. Leader meets leader: the
    /// responder is demoted (one side changes). Otherwise equal colors are
    /// null, the initiator adopts the next color up (one side), and any
    /// other colors swap (both sides, often with no net count change).
    #[derive(Debug, Clone, Copy)]
    struct Mixed;

    impl Protocol for Mixed {
        type State = (bool, u8);
        type Output = Role;
        fn initial_state(&self) -> (bool, u8) {
            (true, 0)
        }
        fn transition(
            &self,
            &(la, ca): &(bool, u8),
            &(lb, cb): &(bool, u8),
        ) -> ((bool, u8), (bool, u8)) {
            if la && lb {
                ((la, ca), (false, cb))
            } else if ca == cb {
                ((la, ca), (lb, cb))
            } else if (ca + 1) % 4 == cb {
                ((la, cb), (lb, cb))
            } else {
                ((la, cb), (lb, ca))
            }
        }
        fn output(&self, &(leader, _): &(bool, u8)) -> Role {
            if leader {
                Role::Leader
            } else {
                Role::Follower
            }
        }
    }

    impl LeaderElection for Mixed {
        fn monotone_leaders(&self) -> bool {
            true
        }
    }

    #[test]
    fn array_steps_keep_counts_support_and_agents_consistent() {
        // On the agent array a step writes only the sides that change. The
        // reference twin runs every interaction through the cache-miss
        // path, which skips unchanged sides by the same rule, so the twin
        // checks that the compiled loop and the miss path agree step for
        // step; it cannot catch a rule both share. The checks against
        // `state_counts()` and the agent array itself are what judge the
        // bookkeeping: a skipped changed side, or a lost support change,
        // makes them disagree.
        let n = 512u64;
        let mut init = vec![((true, 0u8), 8u64)];
        init.extend((0..4u8).map(|c| ((false, c), (n - 8) / 4)));
        let twin = |tier| {
            let mut sim = CountSimulation::from_counts(Mixed, init.clone(), rng(17)).unwrap();
            sim.pin_tier(tier).unwrap();
            sim
        };
        let mut cached = twin(EngineTier::Compiled);
        let mut reference = twin(EngineTier::Reference);
        let check = |sim: &CountSimulation<Mixed>| {
            let counts = sim.state_counts();
            assert_eq!(sim.support_size(), counts.len());
            assert_eq!(counts.values().sum::<u64>(), n);
            let mut held = vec![0u64; sim.raw_counts().len()];
            for &id in &sim.agents {
                held[id as usize] += 1;
            }
            assert_eq!(held, sim.raw_counts(), "agent array matches the counts");
        };
        for window in [1u64, 37, 500, 4096, 20_000] {
            cached.run(window);
            reference.run(window);
            check(&cached);
            check(&reference);
            assert_eq!(cached.raw_counts(), reference.raw_counts());
            assert_eq!(cached.steps(), reference.steps());
        }
        let elected = cached.run_until_single_leader(u64::MAX);
        assert_eq!(elected, reference.run_until_single_leader(u64::MAX));
        assert!(elected.converged);
        check(&cached);
        check(&reference);
        assert_eq!(cached.raw_counts(), reference.raw_counts());
        // All three kinds of step ran: null, one-sided and two-sided.
        let mut kinds = [false; 3];
        cached.pairs.for_each_filled_mut(|s, t, entry| {
            let (a, b, _, _) = compiled::unpack(*entry);
            kinds[usize::from(a != s) + usize::from(b != t)] = true;
        });
        assert_eq!(kinds, [true; 3]);
    }

    #[test]
    fn cache_saturates_on_state_explosion_and_stays_exact() {
        // Counter interns a fresh state on (almost) every interaction, so a
        // long per-step run blows past the addressable-id cap. The cache
        // must *saturate* (stay active, stop covering new ids) with no
        // behavioral difference vs. an uncached twin. Single steps never
        // compact (reviews run only in the batched drivers), so the interned
        // count genuinely exceeds the cap here.
        let mut cached = CountSimulation::new(Counter, 2, rng(12)).unwrap();
        let mut reference = CountSimulation::new(Counter, 2, rng(12)).unwrap();
        reference.pin_tier(EngineTier::Reference).unwrap();
        let steps = (compiled::MAX_COMPILED_STATES as u64 + 64) * 2;
        for _ in 0..steps {
            assert_eq!(cached.step(), reference.step());
        }
        assert!(cached.pair_cache().is_active(), "saturation, not a cliff");
        assert!(cached
            .pair_cache()
            .is_saturated(cached.distinct_states_seen()));
        assert_eq!(cached.state_counts(), reference.state_counts());
    }

    #[test]
    fn compaction_reclaims_dead_ids_in_batched_runs() {
        // Driven through run(), tier reviews compact the id space: the live
        // slot count stays bounded while distinct_states_seen keeps exact
        // count of everything ever interned.
        let mut sim = CountSimulation::new(Counter, 2, rng(13)).unwrap();
        sim.run(20_000);
        assert!(sim.distinct_states_seen() > 4096, "interning kept counting");
        assert!(
            sim.raw_counts().len() < 256,
            "live slots were not reclaimed: {}",
            sim.raw_counts().len()
        );
        assert!(sim.pair_cache().is_active());
        assert!(!sim.pair_cache().is_saturated(sim.raw_counts().len()));
        let total: u64 = sim.state_counts().values().sum();
        assert_eq!(total, 2);
        assert_eq!(sim.steps(), 20_000);
    }

    #[test]
    fn compaction_preserves_bit_identical_cached_uncached_twins() {
        // Compaction consumes no randomness and depends only on counts, so
        // cached and uncached twins must stay in lockstep across it.
        let mut cached = CountSimulation::new(Counter, 2, rng(14)).unwrap();
        cached.pin_tier(EngineTier::Compiled).unwrap();
        let mut reference = CountSimulation::new(Counter, 2, rng(14)).unwrap();
        reference.pin_tier(EngineTier::Reference).unwrap();
        for _ in 0..64 {
            cached.run(300);
            reference.run(300);
            assert_eq!(cached.state_counts(), reference.state_counts());
            assert_eq!(
                cached.distinct_states_seen(),
                reference.distinct_states_seen()
            );
            assert_eq!(cached.support_size(), reference.support_size());
        }
    }

    #[test]
    fn pair_cache_compiles_pairs_lazily() {
        let mut sim = CountSimulation::new(Frat, 32, rng(15)).unwrap();
        assert_eq!(sim.pair_cache().compiled_pairs(), 0);
        sim.run(100);
        // Fratricide over {L, F} has at most 4 ordered pairs.
        assert!(sim.pair_cache().compiled_pairs() <= 4);
        assert!(sim.pair_cache().compiled_pairs() >= 1);
        assert!(sim.pair_cache().table_bytes() > 0);
    }

    #[test]
    fn batch_rounds_conserve_population_and_step_budgets() {
        let mut sim = CountSimulation::new(Frat, 256, rng(16)).unwrap();
        sim.pin_tier(EngineTier::Batch).unwrap();
        for chunk in [1u64, 7, 64, 1000, 4096] {
            let before = sim.steps();
            sim.run(chunk);
            assert_eq!(sim.steps(), before + chunk);
            let total: u64 = sim.state_counts().values().sum();
            assert_eq!(total, 256);
            assert_eq!(sim.support_size(), sim.state_counts().len());
        }
        let stats = sim.metrics().batch;
        assert!(stats.episodes > 0);
        assert!(stats.bulk_interactions > 0);
        assert_eq!(
            stats.bulk_interactions + stats.collision_interactions,
            sim.steps()
        );
    }

    #[test]
    fn batch_convergence_is_exact_to_single_leader() {
        for seed in 0..8 {
            let mut sim = CountSimulation::new(Frat, 128, rng(100 + seed)).unwrap();
            sim.pin_tier(EngineTier::Batch).unwrap();
            let out = sim.run_until_single_leader(u64::MAX);
            assert!(out.converged);
            assert_eq!(sim.leader_count(), 1);
            assert_eq!(sim.steps(), out.steps);
            assert!(sim.metrics().batch.exact_walks > 0, "tail must walk");
        }
    }

    #[test]
    fn batch_engages_heuristically_on_large_small_support_populations() {
        let mut sim = CountSimulation::new(Frat, 1 << 14, rng(17)).unwrap();
        assert_eq!(sim.active_tier(), EngineTier::Compiled);
        sim.run(1 << 12);
        // Fratricide's support is 2: below the crossover its cells table,
        // 8·2² = 32, fits E[run] = 80, so batch engages at the first review
        // (until the null fraction crosses the jump threshold much later).
        assert_eq!(sim.active_tier(), EngineTier::Batch);
        assert!(sim.metrics().batch.episodes > 0);
    }

    #[test]
    fn batch_never_engages_below_population_floor() {
        // Two states need 8·2² ≤ E[run], which first holds at 2704 agents.
        let mut sim = CountSimulation::new(Frat, 200, rng(18)).unwrap();
        sim.run(50_000);
        assert_eq!(sim.metrics().batch.episodes, 0);
        assert_ne!(sim.active_tier(), EngineTier::Batch);
    }

    #[test]
    fn disabling_batch_tier_disengages() {
        // Heuristic dispatch engages batch here; a pin after the first
        // interaction is refused and changes nothing.
        let mut free = CountSimulation::new(Frat, 1 << 14, rng(21)).unwrap();
        free.run(1 << 12);
        assert_eq!(free.active_tier(), EngineTier::Batch);
        let late = free.pin_tier(EngineTier::Compiled);
        let expected = EngineError::LatePin {
            tier: EngineTier::Compiled,
            steps: 1 << 12,
        };
        assert_eq!(late, Err(expected));
        assert_eq!(free.active_tier(), EngineTier::Batch);
        // The compiled pin, set up front, keeps batch out for good; a second
        // pin is refused too.
        let mut pinned = CountSimulation::new(Frat, 1 << 14, rng(21)).unwrap();
        pinned.pin_tier(EngineTier::Compiled).unwrap();
        assert!(pinned.pin_tier(EngineTier::Batch).is_err());
        pinned.run(1 << 13);
        assert_eq!(pinned.metrics().batch.episodes, 0);
        assert_eq!(pinned.active_tier(), EngineTier::Compiled);
    }

    #[test]
    fn pinning_a_fast_tier_beyond_its_population_cap_is_a_typed_error() {
        // Only counts are stored, so a 2^32 + 1 agent engine is cheap.
        let n = (1usize << 32) + 1;
        let mut sim = CountSimulation::new(Frat, n, rng(30)).unwrap();
        for tier in [EngineTier::Jump, EngineTier::Batch] {
            assert_eq!(
                sim.pin_tier(tier),
                Err(EngineError::PopulationTooLarge {
                    tier,
                    n: n as u64,
                    max: u64::from(u32::MAX),
                })
            );
            assert_eq!(sim.active_tier(), EngineTier::Compiled, "left unchanged");
        }
        sim.pin_tier(EngineTier::Compiled).unwrap();
        sim.run(1_000);
        assert_eq!(sim.steps(), 1_000);
        assert_eq!(sim.active_tier(), EngineTier::Compiled);
    }
}
