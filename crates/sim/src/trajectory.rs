//! Single-run trajectory capture for the observability CLI surface.
//!
//! Two captures over the paper's `P_LL`, both deterministic for a fixed
//! `(n, seed, every)`:
//!
//! * [`pll_attribution_trajectory`] — the per-agent reference engine,
//!   sampling the leader count **and** the cumulative
//!   per-[`Demotion`](pp_core::metrics::Demotion) elimination counts every
//!   `every` interactions. This is the CSV behind the `--trajectory` flag:
//!   the paper's three-mechanism cascade (status assignment →
//!   `QuickElimination()` → `Tournament()`, with `BackUp()` as the rare
//!   tail) becomes a plottable time series keyed by interactions and by
//!   `interactions / n²`.
//! * [`observed_pll_election`] — the count engine under an attached
//!   [`EngineObserver`] with a trajectory sampler, yielding the unified
//!   [`EngineMetrics`] snapshot and the JSONL event log behind
//!   `--metrics-out` / `--events-out`.
//!
//! The final trace row of either capture always reflects the run's
//! reported outcome (same step count, leader count 1 on convergence), so
//! downstream checkers can validate CSV against summary without slack.

use pp_core::metrics::DemotionTally;
use pp_core::Pll;
use pp_engine::{
    Configuration, CountSimulation, EngineMetrics, EngineObserver, RunOutcome, Scheduler, Trace,
    UniformScheduler,
};
use pp_rand::Xoshiro256PlusPlus;
use pp_stats::Table;

/// Result of [`pll_attribution_trajectory`]: the sampled series plus the
/// run's reported outcome, kept together so the caller can assert the two
/// agree.
#[derive(Debug, Clone)]
pub struct PllTrajectory {
    /// Population size.
    pub n: usize,
    /// Sampling stride in interactions.
    pub every: u64,
    /// The election outcome (step count, convergence).
    pub outcome: RunOutcome,
    /// Leader count at the final step.
    pub final_leaders: u64,
    /// Final cumulative per-mechanism demotion tally.
    pub tally: DemotionTally,
    /// The sampled series: `leaders` plus one cumulative count per
    /// demotion mechanism and their total.
    pub trace: Trace,
}

/// Series names of the attribution trace, in column order.
pub const ATTRIBUTION_SERIES: [&str; 7] = [
    "leaders",
    "status_assignment",
    "quick_elimination",
    "tournament",
    "backup_level",
    "backup_duel",
    "demotions_total",
];

impl PllTrajectory {
    /// Renders the trajectory as a [`Table`] with the step count, both
    /// normalized time axes (`steps / n` and `steps / n²`), the leader
    /// count, and the cumulative per-mechanism demotions.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new([
            "step",
            "parallel_time",
            "steps_over_n2",
            "leaders",
            "status_assignment",
            "quick_elimination",
            "tournament",
            "backup_level",
            "backup_duel",
            "demotions_total",
        ]);
        let n = self.n as f64;
        for (step, values) in self.trace.rows() {
            let mut row = vec![
                step.to_string(),
                format!("{}", *step as f64 / n),
                format!("{}", *step as f64 / (n * n)),
            ];
            row.extend(values.iter().map(|v| format!("{v}")));
            table.push_row(row);
        }
        table
    }
}

/// Runs one `P_LL` election on the per-agent reference engine, sampling
/// the leader count and the cumulative per-[`Demotion`] elimination
/// counts every `every` interactions (floored at 1). The first row lands
/// at step 0 and the last row at the exact stabilization (or budget)
/// step, so `trace.last_step() == Some(outcome.steps)` always holds.
///
/// [`Demotion`]: pp_core::metrics::Demotion
///
/// # Panics
///
/// Panics when `n < 2`.
pub fn pll_attribution_trajectory(
    n: usize,
    seed: u64,
    every: u64,
    max_steps: u64,
) -> PllTrajectory {
    let every = every.max(1);
    let pll = Pll::for_population(n).expect("n >= 2");
    let mut config = Configuration::initial(&pll, n).expect("n >= 2");
    let mut scheduler = UniformScheduler::seed_from_u64(seed);
    let mut tally = DemotionTally::new();
    let mut trace = Trace::new(ATTRIBUTION_SERIES);
    let mut leaders = config.leader_count(&pll) as u64;
    let mut steps: u64 = 0;
    let sample = |trace: &mut Trace, steps: u64, leaders: u64, tally: &DemotionTally| {
        trace.record(
            steps,
            &[
                leaders as f64,
                tally.status_assignment as f64,
                tally.quick_elimination as f64,
                tally.tournament as f64,
                tally.backup_level as f64,
                tally.backup_duel as f64,
                tally.total() as f64,
            ],
        );
    };
    sample(&mut trace, steps, leaders, &tally);
    while leaders > 1 && steps < max_steps {
        let interaction = scheduler.next_interaction(n);
        let pre_i = *config.state(interaction.initiator).expect("in bounds");
        let pre_r = *config.state(interaction.responder).expect("in bounds");
        config.apply(&pll, interaction).expect("valid interaction");
        let post_i = *config.state(interaction.initiator).expect("in bounds");
        let post_r = *config.state(interaction.responder).expect("in bounds");
        let before = tally.total();
        tally.observe((&pre_i, &pre_r), (&post_i, &post_r));
        leaders -= tally.total() - before;
        steps += 1;
        if steps % every == 0 {
            sample(&mut trace, steps, leaders, &tally);
        }
    }
    if trace.last_step() != Some(steps) {
        sample(&mut trace, steps, leaders, &tally);
    }
    PllTrajectory {
        n,
        every,
        outcome: RunOutcome {
            steps,
            converged: leaders == 1,
        },
        final_leaders: leaders,
        tally,
        trace,
    }
}

/// Result of [`observed_pll_election`]: the count engine's unified
/// metrics, its structured event log, and the sampled leader/support
/// trajectory.
#[derive(Debug, Clone)]
pub struct ObservedElection {
    /// The election outcome.
    pub outcome: RunOutcome,
    /// Unified metrics at stabilization.
    pub metrics: EngineMetrics,
    /// The event log, one JSON object per line (schema in
    /// [`pp_engine::obs`]).
    pub events_jsonl: String,
    /// Leader count and support size sampled every `every` interactions.
    pub trace: Trace,
}

/// Runs one `P_LL` election on the count engine (auto tiers) under an
/// attached observer with an `every`-interaction trajectory sampler, and
/// returns everything the observer saw.
///
/// # Panics
///
/// Panics when `n < 2`.
pub fn observed_pll_election(n: usize, seed: u64, every: u64, max_steps: u64) -> ObservedElection {
    let pll = Pll::for_population(n).expect("n >= 2");
    let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut sim = CountSimulation::new(pll, n, rng).expect("n >= 2");
    sim.set_observer(EngineObserver::new().with_trajectory(every.max(1)));
    let outcome = sim.run_until_single_leader(max_steps);
    let metrics = sim.metrics();
    let observer = sim.take_observer().expect("observer was attached");
    ObservedElection {
        outcome,
        metrics,
        events_jsonl: observer.events_to_jsonl(),
        trace: observer.into_trace().expect("sampler was attached"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_trajectory_final_row_matches_the_outcome() {
        let report = pll_attribution_trajectory(128, 11, 64, u64::MAX);
        assert!(report.outcome.converged);
        assert_eq!(report.final_leaders, 1);
        assert_eq!(report.trace.last_step(), Some(report.outcome.steps));
        assert_eq!(report.trace.last_value("leaders"), Some(1.0));
        // Conservation: n agents start as leaders, n − 1 are demoted.
        assert_eq!(report.tally.total(), 127);
        assert_eq!(
            report.trace.last_value("demotions_total"),
            Some(report.tally.total() as f64)
        );
        // The table carries one row per sample, plus the header.
        let table = report.to_table();
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), report.trace.len() + 1);
        assert!(csv.starts_with("step,parallel_time,steps_over_n2,leaders,"));
    }

    #[test]
    fn attribution_trajectory_respects_a_step_budget() {
        let report = pll_attribution_trajectory(128, 11, 32, 100);
        assert!(!report.outcome.converged);
        assert_eq!(report.outcome.steps, 100);
        assert_eq!(report.trace.last_step(), Some(100));
    }

    #[test]
    fn observed_election_reports_metrics_and_events() {
        // n >= 4096 so the batch tier engages and the event log is
        // non-empty (below that, an auto-tier P_LL election stays on the
        // compiled tier and fires no transitions).
        let observed = observed_pll_election(4096, 23, 512, u64::MAX);
        assert!(observed.outcome.converged);
        assert_eq!(observed.metrics.steps, observed.outcome.steps);
        assert_eq!(observed.metrics.population, 4096);
        assert!(observed.metrics.timeline.is_some());
        assert_eq!(observed.trace.last_step(), Some(observed.outcome.steps));
        assert_eq!(observed.trace.last_value("leaders"), Some(1.0));
        assert!(
            !observed.events_jsonl.is_empty(),
            "a batch-regime election emits events"
        );
    }
}
