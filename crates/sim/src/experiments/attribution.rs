//! **Module attribution** — which mechanism eliminates how many leaders.
//!
//! A figure-equivalent breakdown motivating the paper's three-phase design:
//! status assignment fells about half the population instantly,
//! `QuickElimination()` removes almost all remaining leaders, `Tournament()`
//! settles the stragglers, and `BackUp()` rarely demotes anyone. That ranks
//! demotions, not time: the slow mode is a QuickElimination tie (`theorem1`).

use crate::{parallel_map, ExperimentOutput};
use pp_core::metrics::DemotionTally;
use pp_core::Pll;
use pp_engine::{Configuration, LeaderElection, Scheduler, UniformScheduler};
use pp_rand::SeedSequence;
use pp_stats::Table;

fn run_one(n: usize, seed: u64) -> DemotionTally {
    let pll = Pll::for_population(n).expect("n >= 2");
    let mut config = Configuration::initial(&pll, n).expect("n >= 2");
    let mut scheduler = UniformScheduler::seed_from_u64(seed);
    let mut tally = DemotionTally::new();
    let mut leaders = config.leader_count(&pll);
    while leaders > 1 {
        let interaction = scheduler.next_interaction(n);
        let pre_i = *config.state(interaction.initiator).expect("in bounds");
        let pre_r = *config.state(interaction.responder).expect("in bounds");
        config.apply(&pll, interaction).expect("valid interaction");
        let post_i = *config.state(interaction.initiator).expect("in bounds");
        let post_r = *config.state(interaction.responder).expect("in bounds");
        let before = tally.total();
        tally.observe((&pre_i, &pre_r), (&post_i, &post_r));
        leaders -= (tally.total() - before) as usize;
        debug_assert!(
            pll.is_leader(&post_i) || pll.is_leader(&post_r) || leaders >= 1,
            "leaders never vanish"
        );
    }
    tally
}

/// Runs the module-attribution experiment.
pub fn run(quick: bool) -> ExperimentOutput {
    let ns: Vec<usize> = if quick {
        vec![64, 256]
    } else {
        vec![256, 1024, 4096]
    };
    let seeds: u64 = if quick { 5 } else { 25 };

    let seq = SeedSequence::new(0xA77);
    let mut jobs = Vec::new();
    for (ni, &n) in ns.iter().enumerate() {
        for s in 0..seeds {
            jobs.push((n, seq.seed_at(((ni as u64) << 32) | s)));
        }
    }
    let tallies = parallel_map(&jobs, |&(n, seed)| (n, run_one(n, seed)));

    let mut table = Table::new([
        "n",
        "status assignment",
        "QuickElimination",
        "Tournament",
        "BackUp (level)",
        "BackUp (duel)",
        "total (= n − 1)",
    ]);
    for &n in &ns {
        let rows: Vec<&DemotionTally> = tallies
            .iter()
            .filter(|(jn, _)| *jn == n)
            .map(|(_, t)| t)
            .collect();
        let count = rows.len() as f64;
        let mean = |f: fn(&DemotionTally) -> u64| -> String {
            format!(
                "{:.1}",
                rows.iter().map(|t| f(t) as f64).sum::<f64>() / count
            )
        };
        table.push_row([
            n.to_string(),
            mean(|t| t.status_assignment),
            mean(|t| t.quick_elimination),
            mean(|t| t.tournament),
            mean(|t| t.backup_level),
            mean(|t| t.backup_duel),
            mean(|t| t.total()),
        ]);
    }

    let notes = vec![
        "Mean demotions per run, by mechanism; every run loses exactly n − 1 leaders in \
         total (the tally's conservation law, also asserted in `pp-core::metrics` tests)."
            .to_string(),
        "The cascade of Section 3.1 is visible: ~n/2 agents never lead past their first \
         interaction (status assignment), QuickElimination eliminates nearly all remaining \
         leaders, Tournament handles the geometric-tie stragglers, and BackUp rarely demotes \
         anyone. That counts demotions, not time: BackUp is not the slow mode (see theorem1)."
            .to_string(),
    ];

    ExperimentOutput {
        id: "attribution",
        title: "Module attribution — who eliminates whom",
        notes,
        tables: vec![("mean demotions per run".to_string(), table)],
    }
}
