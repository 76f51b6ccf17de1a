//! Per-layer probes: `pp_rand` samplers timed at shapes taken from a
//! workload's own count vectors, and `pp_engine` tier accounting read from
//! an attached observer.

use pp_engine::{CountSimulation, EngineEvent, EngineObserver, LeaderElection};
use pp_rand::{Geometric, Hypergeometric, Rng64, SumTreeSampler, Xoshiro256PlusPlus};
use std::hint::black_box;
use std::time::Instant;

use crate::report::Report;

/// One count vector observed in a workload: the population, the per-state
/// counts, and how many of those agents are leaders.
#[derive(Debug)]
pub struct Shape {
    pub n: u64,
    pub counts: Vec<u64>,
    pub leaders: u64,
}

impl Shape {
    /// The current configuration of `sim`.
    pub fn of<P: LeaderElection>(sim: &CountSimulation<P>) -> Self {
        let mut counts = Vec::new();
        let mut leaders = 0;
        for (state, count) in sim.state_counts() {
            if sim.protocol().is_leader(&state) {
                leaders += count;
            }
            counts.push(count);
        }
        counts.sort_unstable();
        Self {
            n: sim.population() as u64,
            counts,
            leaders,
        }
    }

    /// The batch tier's expected collision-free round length, `√(πn/8)`.
    fn round_len(&self) -> u64 {
        ((std::f64::consts::PI * self.n as f64 / 8.0).sqrt() as u64).max(1)
    }
}

/// Count vectors of `sim`, sampled every `window` interactions
/// (`state_counts()` at window boundaries) from its current configuration
/// until a single leader remains or `max_windows` windows have run.
pub fn shapes<P: LeaderElection>(
    mut sim: CountSimulation<P>,
    window: u64,
    max_windows: usize,
) -> Vec<Shape> {
    let mut out = vec![Shape::of(&sim)];
    while out.len() <= max_windows && sim.leader_count() > 1 {
        sim.run(window);
        out.push(Shape::of(&sim));
    }
    out
}

/// Nanoseconds per call of `f`, timed over `calls` calls.
fn ns_per<F: FnMut()>(calls: u64, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Times the `pp_rand` entry points the engine calls, at `shapes`, and
/// records the `rand.*` metrics.
pub fn rand_layer(shapes: &[Shape], seed: u64, report: &mut Report) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);

    report.metric(
        "rand.word_ns",
        ns_per(1 << 22, || {
            black_box(rng.next_u64());
        }),
        "ns",
    );

    // Hypergeometric margin draws of one round: every state count against
    // a round-length draw, split by the sampler path the mean selects (the
    // sampler reduces to k ≤ N/2, r ≤ N/2 before choosing).
    let (mut inv, mut hrua) = (Vec::new(), Vec::new());
    for s in shapes {
        let r = s.round_len();
        for &k in &s.counts {
            let h = Hypergeometric::new(s.n, k, r).expect("counts and rounds fit the population");
            let mean = r.min(s.n - r) as f64 * k.min(s.n - k) as f64 / s.n as f64;
            if mean < 10.0 {
                inv.push(h);
            } else {
                hrua.push(h);
            }
        }
    }
    for (name, draws) in [
        ("rand.hypergeom_inv_ns", &inv),
        ("rand.hypergeom_hrua_ns", &hrua),
    ] {
        let ns = if draws.is_empty() {
            0.0
        } else {
            let passes = (1 << 18) / draws.len() as u64 + 1;
            ns_per(passes, || {
                for h in draws.iter() {
                    black_box(h.sample(&mut rng));
                }
            }) / draws.len() as f64
        };
        report.metric(name, ns, "ns");
    }

    // The sequence-expansion step: shuffling one round's responder slots.
    let len = shapes.iter().map(Shape::round_len).max().unwrap_or(1) as usize;
    let mut slots: Vec<u32> = (0..len as u32).collect();
    let per_shuffle = ns_per((1 << 21) / len as u64 + 1, || {
        rng.shuffle(black_box(&mut slots));
    });
    report.metric("rand.shuffle_ns_per_elem", per_shuffle / len as f64, "ns");

    // The compiled tier's scheduler draw, at each observed support.
    let trees: Vec<SumTreeSampler> = shapes
        .iter()
        .filter(|s| s.counts.len() >= 2)
        .map(|s| SumTreeSampler::from_weights(&s.counts).expect("counts are valid weights"))
        .collect();
    let pair_ns = if trees.is_empty() {
        0.0
    } else {
        let passes = (1 << 20) / trees.len() as u64 + 1;
        ns_per(passes, || {
            for t in &trees {
                black_box(t.sample_pair_distinct(&mut rng).expect("n ≥ 2"));
            }
        }) / trees.len() as f64
    };
    report.metric("rand.sumtree_pair_ns", pair_ns, "ns");

    // The jump tier's episode length: the chance that a scheduled pair is a
    // leader pair, the active weight of a fratricide-like configuration.
    let geos: Vec<Geometric> = shapes
        .iter()
        .map(|s| {
            let pairs = (s.n * (s.n - 1)) as f64;
            let active = (s.leaders * s.leaders.saturating_sub(1)).max(2) as f64;
            Geometric::new(active / pairs).expect("a probability in (0, 1]")
        })
        .collect();
    let passes = (1 << 20) / geos.len() as u64 + 1;
    let geo_ns = ns_per(passes, || {
        for g in &geos {
            black_box(g.sample(&mut rng));
        }
    }) / geos.len() as f64;
    report.metric("rand.geometric_ns", geo_ns, "ns");
}

/// Tier accounting summed over the observed operations of one workload.
#[derive(Debug, Default)]
pub struct EngineTally {
    pub ops: u64,
    /// Untraced and traced wall seconds of the same operations.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Interactions simulated (telescoped ones included).
    pub steps: u64,
    pub timeline_s: f64,
    pub compiled: (u64, f64),
    pub batch: (u64, f64),
    pub jump: (u64, f64),
    pub batch_episodes: u64,
    pub jump_episodes: u64,
    pub walks: u64,
    pub transitions: u64,
    pub dispatches: u64,
    pub support_peak: u64,
    /// Batch-tier sub-windows by live support: (interactions, seconds).
    pub early: (u64, f64),
    pub late: (u64, f64),
}

/// Live support at or below which a batch window counts as early.
pub const EARLY_SUPPORT: usize = 80;
/// Live support at or above which a batch window counts as late.
pub const LATE_SUPPORT: usize = 170;

impl EngineTally {
    /// Folds in one observed operation: `sim` carries the observer, `wall`
    /// is its traced wall time and `untraced` its detached twin's. Returns
    /// whether the observer kept every event, so that the event counts
    /// (tier transitions) are complete.
    pub fn add<P: LeaderElection>(
        &mut self,
        sim: &CountSimulation<P>,
        wall: f64,
        untraced: f64,
    ) -> bool {
        let m = sim.metrics();
        let obs = sim.observer().expect("an observer is attached");
        let tl = obs.timeline();
        self.ops += 1;
        self.untraced_s += untraced;
        self.traced_s += wall;
        self.steps += m.steps;
        self.timeline_s += tl.total_seconds();
        for (acc, span) in [
            (&mut self.compiled, tl.compiled),
            (&mut self.batch, tl.batch),
            (&mut self.jump, tl.jump),
        ] {
            acc.0 += span.interactions;
            acc.1 += span.seconds;
        }
        self.batch_episodes += m.batch.episodes;
        self.jump_episodes += m.jump.episodes;
        self.walks += m.batch.exact_walks;
        self.transitions += obs
            .events()
            .iter()
            .filter(|e| matches!(e, EngineEvent::TierTransition { .. }))
            .count() as u64;
        self.dispatches += tl.spans().iter().map(|(_, s)| s.dispatches).sum::<u64>();
        let sampled = obs.trajectory().map_or(0, |t| {
            t.rows().iter().map(|(_, v)| v[1] as u64).max().unwrap_or(0)
        });
        self.support_peak = self.support_peak.max(sampled).max(m.support);
        if obs.dropped() > 0 {
            println!(
                "check FAILED: the observer dropped {} events past its capacity of {EVENT_CAPACITY}",
                obs.dropped()
            );
        }
        obs.dropped() == 0
    }

    /// Records the `engine.*` metrics (zero for a workload that observed
    /// no engine) and prints how much of the traced wall time the tier
    /// timeline accounts for.
    pub fn report(&self, report: &mut Report) {
        let ops = self.ops as f64;
        let steps = self.steps as f64;
        let ns_per = |secs: f64, per: u64| ratio(secs * 1e9, per as f64);
        report.metric(
            "engine.compiled.share",
            ratio(self.compiled.0 as f64, steps),
            "ratio",
        );
        report.metric(
            "engine.compiled.ns_per_int",
            ns_per(self.compiled.1, self.compiled.0),
            "ns",
        );
        report.metric(
            "engine.batch.ns_per_int",
            ns_per(self.batch.1, self.batch.0),
            "ns",
        );
        report.metric("engine.batch.walks", ratio(self.walks as f64, ops), "count");
        report.metric(
            "engine.tier.transitions",
            ratio(self.transitions as f64, ops),
            "count",
        );
        report.metric(
            "engine.tier.dispatches",
            ratio(self.dispatches as f64, ops),
            "count",
        );
        report.metric(
            "engine.batch.early_int_per_s",
            ratio(self.early.0 as f64, self.early.1),
            "1/s",
        );
        report.metric(
            "engine.batch.late_int_per_s",
            ratio(self.late.0 as f64, self.late.1),
            "1/s",
        );
        report.metric(
            "engine.batch.int_per_episode",
            ratio(self.batch.0 as f64, self.batch_episodes as f64),
            "count",
        );
        report.metric("engine.support_peak", self.support_peak as f64, "count");
        report.metric(
            "engine.jump.share",
            ratio(self.jump.0 as f64, steps),
            "ratio",
        );
        report.metric(
            "engine.jump.ns_per_episode",
            ns_per(self.jump.1, self.jump_episodes),
            "ns",
        );
        report.metric(
            "engine.batch.s_share",
            ratio(self.batch.1, self.traced_s),
            "ratio",
        );
        let residual = ratio(self.traced_s - self.timeline_s, self.traced_s);
        report.metric("engine.timeline_residual", residual, "ratio");
        if self.ops > 0 {
            println!(
                "accounting: tier timeline {:.4} s of {:.4} s traced wall over {} ops, \
                 residual {residual:+.4}, {} the ±{TIMELINE_TOLERANCE} tolerance",
                self.timeline_s,
                self.traced_s,
                self.ops,
                if residual.abs() <= TIMELINE_TOLERANCE {
                    "within"
                } else {
                    "outside"
                }
            );
        }
    }

    /// Traced ÷ untraced wall time of the same operations.
    pub fn trace_overhead(&self) -> f64 {
        ratio(self.traced_s, self.untraced_s)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reached).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Largest share of a traced operation's wall time the tier timeline may
/// leave unaccounted (tier reviews and the engine's run loop run between
/// dispatches, outside every span).
pub const TIMELINE_TOLERANCE: f64 = 0.05;

/// Events an observer keeps. The engine records one event per batch
/// episode, and the budgeted run at 2^20 holds ≈ 650 000 of them, ten times
/// the engine's default buffer. The buffer grows only as events arrive.
pub const EVENT_CAPACITY: usize = 1 << 22;

/// An observer for a traced operation: the tier timeline, events, and —
/// with `every` — a support trajectory sampled every `every` interactions
/// (leave it off where the jump tier telescopes parallel time into the
/// millions: one sample per episode would not fit in memory).
pub fn observer(every: Option<u64>) -> EngineObserver {
    let obs = EngineObserver::with_capacity(EVENT_CAPACITY);
    match every {
        Some(every) => obs.with_trajectory(every),
        None => obs,
    }
}
