//! Engine observability: structured events, unified metrics, and trajectory
//! sampling for [`CountSimulation`](crate::CountSimulation).
//!
//! The engine's tier dispatch is invisible from the outside: a run reports
//! end-state numbers (`steps`, final counts, the two ad-hoc stats structs)
//! but not *where the time went* or *what the trajectory looked like*. This
//! module adds three observation surfaces:
//!
//! * [`EngineObserver`] — an attachable hook that sinks structured
//!   [`EngineEvent`]s (tier transitions, jump engage/disengage with
//!   hysteresis context, batch-round episodes with their shape,
//!   compactions), accounts per-tier
//!   interactions and wall time in a monotonic-clock [`TierTimeline`], and
//!   optionally samples a [`TrajectorySampler`] trace.
//! * [`EngineMetrics`] — one unified snapshot of everything the engine can
//!   report, serializable to JSON by hand (this workspace takes no serde
//!   dependency).
//! * A JSONL event-log encoding — one [`EngineEvent`] per line via
//!   [`EngineEvent::to_json_line`].
//!
//! Both encodings are write-only on the Rust side: `tools/check_obs.py`
//! validates every field of the files the binaries write.
//!
//! # The no-RNG / bit-identity contract
//!
//! Observation consumes **no randomness** and never changes what the engine
//! executes: a simulation with an observer attached produces bit-identical
//! trajectories, final counts, step counts, tier and batch counters, and
//! RNG stream (the next word drawn) to its detached twin, on all four tiers
//! (pinned by the `tests/obs_identity.rs` suite).
//! The disabled path costs one predictable branch at episode/review
//! boundaries — never inside the per-interaction hot loops. Trajectory sampling only subdivides *per-step* chunk windows
//! (per-step draws are identical per step, so window partitioning is
//! invisible); jump and batch episode budgets are never capped for a sample,
//! so on those tiers samples land on the first episode boundary at or past
//! each grid point.
//!
//! # Event schema (JSONL)
//!
//! Every line is one flat JSON object with an `"event"` discriminator and a
//! `"step"` field (the engine step count when the event fired):
//!
//! | `event` | extra fields |
//! |---------|--------------|
//! | `tier_transition` | `from`, `to` (tier names) |
//! | `jump_engage` | `w_active`, `w_total` (scheduler weights at the probe) |
//! | `jump_disengage` | `w_active`, `w_total`, `episodes`, `skipped` (cumulative) |
//! | `batch_engage` | `support`, `expected_run` |
//! | `batch_exit` | `support`, `expected_run` |
//! | `batch_episode` | `bulk`, `collision`, `walked` |
//! | `compaction` | `live_before`, `live_after` (interned state ids) |

use crate::batch::BatchStats;
use crate::tier::{EngineTier, JumpStats, TierUsage};
use crate::trace::Trace;

/// Default cap on buffered events per observer; past it events are counted
/// in [`EngineObserver::dropped`] instead of stored, bounding memory on
/// arbitrarily long runs.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// One structured engine event (see the [module docs](self) for the JSONL
/// schema). Events fire at episode/review boundaries only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// The active execution tier changed across a review or episode.
    TierTransition {
        /// Engine step count when the transition happened.
        step: u64,
        /// Tier before the transition.
        from: EngineTier,
        /// Tier after the transition.
        to: EngineTier,
    },
    /// The jump scheduler engaged: known-null pairs carry enough scheduler
    /// weight that telescoping pays.
    JumpEngage {
        /// Engine step count at the engaging review.
        step: u64,
        /// Active (non-known-null) scheduler weight at the probe.
        w_active: u64,
        /// Total scheduler weight `n(n−1)`.
        w_total: u64,
    },
    /// The jump scheduler disengaged through its hysteresis exit.
    JumpDisengage {
        /// Engine step count at the disengaging episode.
        step: u64,
        /// Active scheduler weight that tripped the exit rule.
        w_active: u64,
        /// Total scheduler weight `n(n−1)`.
        w_total: u64,
        /// Cumulative jump episodes executed so far.
        episodes: u64,
        /// Cumulative null interactions telescoped so far.
        skipped: u64,
    },
    /// The batch tier engaged (live support small enough for
    /// hypergeometric rounds to pay).
    BatchEngage {
        /// Engine step count at the engaging review.
        step: u64,
        /// Live support at the review.
        support: u64,
        /// Expected collision-free run length at this population.
        expected_run: u64,
    },
    /// The batch tier disengaged through its hysteresis exit.
    BatchExit {
        /// Engine step count at the disengaging review.
        step: u64,
        /// Live support at the review.
        support: u64,
        /// Expected collision-free run length at this population.
        expected_run: u64,
    },
    /// One batch-tier round episode completed.
    BatchEpisode {
        /// Engine step count after the episode.
        step: u64,
        /// Bulk (collision-free) interactions applied.
        bulk: u64,
        /// Whether the episode ended in a collision interaction.
        collision: bool,
        /// Whether the episode ran the exact shuffled walk (leader count
        /// near 1).
        walked: bool,
    },
    /// A tier review compacted the interned state-id space.
    Compaction {
        /// Engine step count at the compacting review.
        step: u64,
        /// Interned ids before compaction.
        live_before: u64,
        /// Interned ids after compaction.
        live_after: u64,
    },
}

impl EngineEvent {
    /// The engine step count the event fired at.
    pub fn step(&self) -> u64 {
        match *self {
            EngineEvent::TierTransition { step, .. }
            | EngineEvent::JumpEngage { step, .. }
            | EngineEvent::JumpDisengage { step, .. }
            | EngineEvent::BatchEngage { step, .. }
            | EngineEvent::BatchExit { step, .. }
            | EngineEvent::BatchEpisode { step, .. }
            | EngineEvent::Compaction { step, .. } => step,
        }
    }

    /// The event's JSONL discriminator (the `"event"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::TierTransition { .. } => "tier_transition",
            EngineEvent::JumpEngage { .. } => "jump_engage",
            EngineEvent::JumpDisengage { .. } => "jump_disengage",
            EngineEvent::BatchEngage { .. } => "batch_engage",
            EngineEvent::BatchExit { .. } => "batch_exit",
            EngineEvent::BatchEpisode { .. } => "batch_episode",
            EngineEvent::Compaction { .. } => "compaction",
        }
    }

    /// Serializes the event as one JSON line (no trailing newline) in the
    /// [module-level schema](self).
    pub fn to_json_line(&self) -> String {
        let head = |step: u64| format!("{{\"event\":\"{}\",\"step\":{step}", self.kind());
        match *self {
            EngineEvent::TierTransition { step, from, to } => {
                format!("{},\"from\":\"{from}\",\"to\":\"{to}\"}}", head(step))
            }
            EngineEvent::JumpEngage {
                step,
                w_active,
                w_total,
            } => format!(
                "{},\"w_active\":{w_active},\"w_total\":{w_total}}}",
                head(step)
            ),
            EngineEvent::JumpDisengage {
                step,
                w_active,
                w_total,
                episodes,
                skipped,
            } => format!(
                "{},\"w_active\":{w_active},\"w_total\":{w_total},\"episodes\":{episodes},\"skipped\":{skipped}}}",
                head(step)
            ),
            EngineEvent::BatchEngage {
                step,
                support,
                expected_run,
            } => format!(
                "{},\"support\":{support},\"expected_run\":{expected_run}}}",
                head(step)
            ),
            EngineEvent::BatchExit {
                step,
                support,
                expected_run,
            } => format!(
                "{},\"support\":{support},\"expected_run\":{expected_run}}}",
                head(step)
            ),
            EngineEvent::BatchEpisode {
                step,
                bulk,
                collision,
                walked,
            } => format!(
                "{},\"bulk\":{bulk},\"collision\":{collision},\"walked\":{walked}}}",
                head(step)
            ),
            EngineEvent::Compaction {
                step,
                live_before,
                live_after,
            } => format!(
                "{},\"live_before\":{live_before},\"live_after\":{live_after}}}",
                head(step)
            ),
        }
    }
}

/// Wall-clock and interaction accounting for one execution tier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierSpan {
    /// Interactions executed (or telescoped) under this tier.
    pub interactions: u64,
    /// Wall-clock seconds spent dispatching to this tier (monotonic clock,
    /// read once per episode/chunk dispatch only while an observer is
    /// attached).
    /// Each interval between two reads is charged to the tier dispatched in
    /// it, so the tier review before a dispatch and the bookkeeping after it
    /// count toward that dispatch's tier.
    pub seconds: f64,
    /// Dispatches (episodes or per-step chunks) into this tier.
    pub dispatches: u64,
}

/// Per-tier interaction and wall-time accounting, maintained by the engine
/// while an observer is attached. The observer-independent interaction
/// counters live in [`TierUsage`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierTimeline {
    /// The uncached per-step tier.
    pub reference: TierSpan,
    /// The compiled per-step tier.
    pub compiled: TierSpan,
    /// The null-telescoping jump tier.
    pub jump: TierSpan,
    /// The hypergeometric batch tier.
    pub batch: TierSpan,
}

impl TierTimeline {
    /// Accounts one dispatch of `interactions` interactions taking
    /// `seconds` wall seconds to `tier`.
    pub(crate) fn note(&mut self, tier: EngineTier, interactions: u64, seconds: f64) {
        let span = match tier {
            EngineTier::Reference => &mut self.reference,
            EngineTier::Compiled => &mut self.compiled,
            EngineTier::Jump => &mut self.jump,
            EngineTier::Batch => &mut self.batch,
        };
        span.interactions += interactions;
        span.seconds += seconds;
        span.dispatches += 1;
    }

    /// Total wall seconds across all tiers.
    pub fn total_seconds(&self) -> f64 {
        self.reference.seconds + self.compiled.seconds + self.jump.seconds + self.batch.seconds
    }

    /// The per-tier spans as `(tier, span)` rows in dispatch-priority order.
    pub fn spans(&self) -> [(EngineTier, TierSpan); 4] {
        [
            (EngineTier::Jump, self.jump),
            (EngineTier::Batch, self.batch),
            (EngineTier::Compiled, self.compiled),
            (EngineTier::Reference, self.reference),
        ]
    }
}

/// Samples observables (leader count, live support) every `every`
/// interactions into a [`Trace`], for CSV export keyed by parallel time
/// (interactions / n — the trace's own step column carries the raw
/// interaction count).
///
/// Samples are taken at dispatch boundaries: on per-step tiers the engine
/// subdivides its chunk windows so samples land exactly on the `every`
/// grid; on the jump/batch tiers episode budgets are *not* capped (capping
/// would change the RNG stream and break bit-identity), so a sample lands
/// on the first episode boundary at or past each grid point, with the exact
/// step count recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySampler {
    every: u64,
    next_at: u64,
    trace: Trace,
}

/// Column names of the trajectory trace.
pub const TRAJECTORY_SERIES: [&str; 2] = ["leaders", "support"];

impl TrajectorySampler {
    /// A sampler on an `every`-interaction grid (floored at 1).
    pub fn new(every: u64) -> Self {
        Self {
            every: every.max(1),
            next_at: 0,
            trace: Trace::new(TRAJECTORY_SERIES),
        }
    }

    /// The sampling grid interval.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The next grid step at or past which a sample is due.
    pub(crate) fn next_due(&self) -> u64 {
        self.next_at
    }

    /// Records a sample at `step` and advances the grid strictly past it.
    pub(crate) fn sample(&mut self, step: u64, leaders: u64, support: u64) {
        self.trace.record(step, &[leaders as f64, support as f64]);
        self.next_at = (step / self.every + 1).saturating_mul(self.every);
    }

    /// The sampled trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the sampler, returning its trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

/// The attachable observation hook (see the [module docs](self)): buffers
/// [`EngineEvent`]s up to a capacity, accounts a [`TierTimeline`], and
/// optionally drives a [`TrajectorySampler`].
///
/// Attach with [`set_observer`](crate::CountSimulation::set_observer), read
/// through [`observer`](crate::CountSimulation::observer), detach with
/// [`take_observer`](crate::CountSimulation::take_observer).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineObserver {
    events: Vec<EngineEvent>,
    capacity: usize,
    dropped: u64,
    timeline: TierTimeline,
    sampler: Option<TrajectorySampler>,
}

impl Default for EngineObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineObserver {
    /// An observer with the [default event capacity]
    /// (DEFAULT_EVENT_CAPACITY) and no trajectory sampler.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An observer buffering at most `capacity` events (further events are
    /// counted in [`dropped`](Self::dropped), not stored).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
            timeline: TierTimeline::default(),
            sampler: None,
        }
    }

    /// Adds a trajectory sampler on an `every`-interaction grid (builder
    /// style).
    #[must_use]
    pub fn with_trajectory(mut self, every: u64) -> Self {
        self.sampler = Some(TrajectorySampler::new(every));
        self
    }

    /// Sinks one event, dropping (and counting) past capacity.
    pub fn record(&mut self, event: EngineEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Events dropped past the buffer capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The per-tier interaction / wall-time accounting.
    pub fn timeline(&self) -> &TierTimeline {
        &self.timeline
    }

    pub(crate) fn timeline_mut(&mut self) -> &mut TierTimeline {
        &mut self.timeline
    }

    /// The trajectory sampler, if one was requested.
    pub fn sampler(&self) -> Option<&TrajectorySampler> {
        self.sampler.as_ref()
    }

    pub(crate) fn sampler_mut(&mut self) -> Option<&mut TrajectorySampler> {
        self.sampler.as_mut()
    }

    /// The sampled trajectory trace, if a sampler was requested.
    pub fn trajectory(&self) -> Option<&Trace> {
        self.sampler.as_ref().map(TrajectorySampler::trace)
    }

    /// Consumes the observer, returning the sampled trajectory trace (if a
    /// sampler was requested) without cloning it.
    pub fn into_trace(self) -> Option<Trace> {
        self.sampler.map(TrajectorySampler::into_trace)
    }

    /// Serializes the buffered events as JSONL (one event per line,
    /// trailing newline after each).
    pub fn events_to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// One unified metrics snapshot of a count simulation: population,
/// progress, tier usage, and the per-tier stats. Obtained from
/// [`CountSimulation::metrics`](crate::CountSimulation::metrics); always
/// available — the observer-only extras (event counts, timeline) are
/// populated when an observer is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// Population size `n`.
    pub population: u64,
    /// Interactions simulated so far.
    pub steps: u64,
    /// `steps / n`.
    pub parallel_time: f64,
    /// Live support (states with nonzero count).
    pub support: u64,
    /// Distinct states interned over the whole execution.
    pub distinct_states_seen: u64,
    /// The tier the engine is currently dispatching to.
    pub active_tier: EngineTier,
    /// Interactions executed per tier (maintained with or without an
    /// observer).
    pub tier_usage: TierUsage,
    /// Jump-scheduler counters.
    pub jump: JumpStats,
    /// Batch-tier round counters.
    pub batch: BatchStats,
    /// Whether the compiled pair cache is active.
    pub cache_active: bool,
    /// Ordered state pairs currently compiled in the pair cache.
    pub compiled_pairs: u64,
    /// Runs of the compile path (the protocol's transition on a pair the
    /// cache did not hold) over the whole execution, counting pairs that
    /// compaction later dropped; at least `compiled_pairs`.
    pub compiles: u64,
    /// Events buffered by the attached observer (0 when detached).
    pub events_recorded: u64,
    /// Events dropped past the observer's capacity (0 when detached).
    pub events_dropped: u64,
    /// Per-tier wall-time accounting; `None` when no observer is attached
    /// (wall time is only measured under observation).
    pub timeline: Option<TierTimeline>,
}

impl EngineMetrics {
    /// Serializes the metrics as one JSON object (stable field order;
    /// hand-rolled, no serde): the `engine` section of the `pp-metrics/v1`
    /// document the `pp-sim` binaries write.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"population\":{},\"steps\":{},\
             \"parallel_time\":{},\"support\":{},\"distinct_states_seen\":{},\
             \"active_tier\":\"{}\",",
            self.population,
            self.steps,
            self.parallel_time,
            self.support,
            self.distinct_states_seen,
            self.active_tier,
        ));
        out.push_str(&format!(
            "\"tier_usage\":{{\"reference\":{},\"compiled\":{},\"jump\":{},\"batch\":{}}},",
            self.tier_usage.reference,
            self.tier_usage.compiled,
            self.tier_usage.jump,
            self.tier_usage.batch,
        ));
        out.push_str(&format!(
            "\"jump\":{{\"episodes\":{},\"skipped\":{}}},",
            self.jump.episodes, self.jump.skipped,
        ));
        out.push_str(&format!(
            "\"batch\":{{\"episodes\":{},\"bulk_interactions\":{},\"collision_interactions\":{},\
             \"exact_walks\":{},\"contingency_draws\":{},\"shuffle_skips\":{}}},",
            self.batch.episodes,
            self.batch.bulk_interactions,
            self.batch.collision_interactions,
            self.batch.exact_walks,
            self.batch.contingency_draws,
            self.batch.shuffle_skips,
        ));
        out.push_str(&format!(
            "\"cache\":{{\"active\":{},\"compiled_pairs\":{},\"compiles\":{}}},",
            self.cache_active, self.compiled_pairs, self.compiles,
        ));
        out.push_str(&format!(
            "\"events\":{{\"recorded\":{},\"dropped\":{}}},",
            self.events_recorded, self.events_dropped,
        ));
        match &self.timeline {
            None => out.push_str("\"timeline\":null}"),
            Some(t) => {
                out.push_str("\"timeline\":{");
                for (i, (tier, span)) in [
                    ("reference", t.reference),
                    ("compiled", t.compiled),
                    ("jump", t.jump),
                    ("batch", t.batch),
                ]
                .iter()
                .enumerate()
                {
                    out.push_str(&format!(
                        "\"{tier}\":{{\"interactions\":{},\"seconds\":{},\"dispatches\":{}}}{}",
                        span.interactions,
                        span.seconds,
                        span.dispatches,
                        if i < 3 { "," } else { "" }
                    ));
                }
                out.push_str("}}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EngineEvent> {
        vec![
            EngineEvent::TierTransition {
                step: 0,
                from: EngineTier::Compiled,
                to: EngineTier::Batch,
            },
            EngineEvent::JumpEngage {
                step: 10,
                w_active: 3,
                w_total: 90,
            },
            EngineEvent::JumpDisengage {
                step: 25,
                w_active: 80,
                w_total: 90,
                episodes: 4,
                skipped: 11,
            },
            EngineEvent::BatchEngage {
                step: 30,
                support: 12,
                expected_run: 640,
            },
            EngineEvent::BatchExit {
                step: 31,
                support: 2000,
                expected_run: 640,
            },
            EngineEvent::BatchEpisode {
                step: 700,
                bulk: 633,
                collision: true,
                walked: false,
            },
            EngineEvent::Compaction {
                step: 4096,
                live_before: 900,
                live_after: 130,
            },
        ]
    }

    /// Asserts `line` is one flat JSON object
    /// `{"event":"<kind>","step":<n>,…}` of `"key":value` fields. Field
    /// names and values per kind are checked by `tools/check_obs.py`.
    fn assert_jsonl_shape(line: &str, event: &EngineEvent) {
        let head = format!("{{\"event\":\"{}\",\"step\":{}", event.kind(), event.step());
        let rest = line
            .strip_prefix(&head)
            .unwrap_or_else(|| panic!("line does not open with {head}: {line}"));
        assert!(rest == "}" || rest.starts_with(','), "step runs on: {line}");
        assert!(line.ends_with('}'), "unterminated: {line}");
        assert_eq!(line.matches('{').count(), 1, "not flat: {line}");
        assert_eq!(line.matches('}').count(), 1, "not flat: {line}");
        for field in line[1..line.len() - 1].split(',') {
            let (key, value) = field
                .split_once(':')
                .unwrap_or_else(|| panic!("field without a value in {line}"));
            assert!(
                key.len() > 2 && key.starts_with('"') && key.ends_with('"'),
                "unquoted key {key} in {line}"
            );
            assert!(!value.is_empty(), "empty value in {line}");
        }
    }

    #[test]
    fn every_event_line_has_the_jsonl_shape() {
        for event in sample_events() {
            assert_jsonl_shape(&event.to_json_line(), &event);
        }
    }

    #[test]
    fn observer_caps_and_counts_dropped_events() {
        let mut obs = EngineObserver::with_capacity(2);
        for event in sample_events() {
            obs.record(event);
        }
        assert_eq!(obs.events().len(), 2);
        assert_eq!(obs.dropped(), sample_events().len() as u64 - 2);
        let jsonl = obs.events_to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for (line, event) in jsonl.lines().zip(obs.events()) {
            assert_jsonl_shape(line, event);
        }
    }

    #[test]
    fn trajectory_sampler_advances_its_grid() {
        let mut s = TrajectorySampler::new(100);
        assert_eq!(s.next_due(), 0);
        s.sample(0, 16, 2);
        assert_eq!(s.next_due(), 100);
        // A sample landing past several grid points advances past the last.
        s.sample(342, 9, 3);
        assert_eq!(s.next_due(), 400);
        assert_eq!(s.trace().len(), 2);
        assert_eq!(s.trace().names(), ["leaders", "support"]);
        assert_eq!(TrajectorySampler::new(0).every(), 1, "grid floors at 1");
    }

    fn sample_metrics(timeline: Option<TierTimeline>) -> EngineMetrics {
        EngineMetrics {
            population: 1 << 20,
            steps: 123_456,
            parallel_time: 123_456.0 / (1u64 << 20) as f64,
            support: 130,
            distinct_states_seen: 280,
            active_tier: EngineTier::Batch,
            tier_usage: TierUsage {
                reference: 1,
                compiled: 2,
                jump: 3,
                batch: 4,
            },
            jump: JumpStats {
                episodes: 7,
                skipped: 99,
            },
            batch: BatchStats {
                episodes: 5,
                bulk_interactions: 3000,
                collision_interactions: 4,
                exact_walks: 1,
                contingency_draws: 17,
                shuffle_skips: 2,
            },
            cache_active: true,
            compiled_pairs: 412,
            compiles: 530,
            events_recorded: 31,
            events_dropped: 0,
            timeline,
        }
    }

    /// Asserts `json` is one object with balanced braces that opens with
    /// the population.
    fn assert_metrics_shape(json: &str) {
        assert!(json.starts_with("{\"population\":"), "bad head: {json}");
        let mut depth = 0i64;
        for (i, c) in json.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            assert!(
                depth > 0 || i == json.len() - 1,
                "unbalanced at {i}: {json}"
            );
        }
        assert_eq!(depth, 0, "unbalanced: {json}");
    }

    #[test]
    fn metrics_json_writes_a_null_timeline_when_detached() {
        let json = sample_metrics(None).to_json();
        assert_metrics_shape(&json);
        assert!(json.ends_with(",\"timeline\":null}"), "{json}");
        assert!(
            json.contains("\"cache\":{\"active\":true,\"compiled_pairs\":412,\"compiles\":530},"),
            "{json}"
        );
    }

    #[test]
    fn metrics_json_carries_every_timeline_span() {
        let mut t = TierTimeline::default();
        t.note(EngineTier::Batch, 5000, 0.125);
        t.note(EngineTier::Compiled, 10, 0.5e-6);
        t.note(EngineTier::Jump, 77, 0.25);
        let m = sample_metrics(Some(t));
        let json = m.to_json();
        assert_metrics_shape(&json);
        for span in [
            "\"reference\":{\"interactions\":0,\"seconds\":0,\"dispatches\":0}",
            "\"compiled\":{\"interactions\":10,\"seconds\":0.0000005,\"dispatches\":1}",
            "\"jump\":{\"interactions\":77,\"seconds\":0.25,\"dispatches\":1}",
            "\"batch\":{\"interactions\":5000,\"seconds\":0.125,\"dispatches\":1}",
        ] {
            assert!(json.contains(span), "missing {span} in {json}");
        }
        assert!((m.timeline.unwrap().total_seconds() - 0.3750005).abs() < 1e-12);
    }

    #[test]
    fn timeline_spans_cover_all_tiers() {
        let mut t = TierTimeline::default();
        for (tier, _) in t.spans() {
            t.note(tier, 1, 0.0);
        }
        assert!(t.spans().iter().all(|(_, span)| span.dispatches == 1));
        assert_eq!(t.reference.interactions, 1);
    }
}
