//! Experiment harness reproducing every table and key lemma of
//! *"Logarithmic Expected-Time Leader Election in Population Protocol
//! Model"* (Sudo et al., PODC 2019).
//!
//! Each experiment is a self-contained module producing [`pp_stats::Table`]s
//! and prose notes; the `experiments` binary runs them by id:
//!
//! ```text
//! cargo run --release -p pp-sim --bin experiments -- list
//! cargo run --release -p pp-sim --bin experiments -- table1
//! cargo run --release -p pp-sim --bin experiments -- all --quick
//! ```
//!
//! | id | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — states vs. stabilization time across protocols |
//! | `table2` | Table 2 — lower-bound consistency |
//! | `table3` | Table 3 — the variables of `P_LL` + Lemma 3 state count |
//! | `lemma2` | Lemma 2 — epidemic completion tail vs. `n·e^{−t/n}` |
//! | `lemma4` | Lemma 4 — `\|V_A\| ≥ n/2`, `\|V_F\| ≥ n/2`, `\|V_B\| ≥ 1` |
//! | `lemma6` | Lemma 6 — synchronization properties P1/P2/P3 |
//! | `lemma7` | Lemma 7 — `QuickElimination()` survivor distribution |
//! | `lemma8` | Lemma 8 — unique leader before epoch 4 w.p. `1 − O(1/log n)` |
//! | `lemma12` | Lemmas 9–12 — `BackUp()` from adversarial configurations |
//! | `theorem1` | Theorem 1 — `O(log n)` expected stabilization time |
//! | `symmetric` | Section 4 — symmetric variant and fair-coin machinery |
//! | `ablation` | design-choice ablations (modules, `m`, `c_max`) |
//! | `attribution` | per-module leader-elimination breakdown |
//! | `scheduler` | robustness beyond the uniformly random scheduler |
//!
//! The experiments default to publication sizes; `--quick` shrinks them to
//! smoke-test scale (used by the integration tests).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
pub mod experiments;
pub mod fabric;
mod runner;
pub mod trajectory;

pub use runner::{
    enable_sweep_rollup, parallel_map, stabilization_sweep, sweep_lane_width, take_sweep_rollups,
    SweepPoint, SweepRollup,
};
pub use trajectory::{
    observed_pll_election, pll_attribution_trajectory, ObservedElection, PllTrajectory,
};

use pp_stats::Table;

/// The rendered result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (e.g. `table1`).
    pub id: &'static str,
    /// Human-readable title referencing the paper artifact.
    pub title: &'static str,
    /// Free-form observations comparing measurement against the paper.
    pub notes: Vec<String>,
    /// Named result tables.
    pub tables: Vec<(String, Table)>,
}

impl ExperimentOutput {
    /// Renders the full output as markdown (used by the binary and by
    /// `EXPERIMENTS.md` generation).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## `{}` — {}\n\n", self.id, self.title);
        for (name, table) in &self.tables {
            out.push_str(&format!("### {name}\n\n"));
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("Notes:\n\n");
            for note in &self.notes {
                out.push_str(&format!("* {note}\n"));
            }
            out.push('\n');
        }
        out
    }
}

/// Renders one `pp-metrics/v1` document, the one schema of every metrics
/// file the binaries write: the fixed keys `schema`, `engine`
/// ([`pp_engine::EngineMetrics::to_json`]), `trajectory`, `sweep`, `shard`
/// and `rollups`, then a newline. Each section is the JSON object its owner
/// renders, or `null` where it does not apply; `tools/check_obs.py` holds
/// the field tables.
pub fn metrics_document(
    engine: Option<&str>,
    trajectory: Option<&str>,
    sweep: Option<&str>,
    shard: Option<&str>,
    rollups: &[SweepRollup],
) -> String {
    let [engine, trajectory, sweep, shard] =
        [engine, trajectory, sweep, shard].map(|section| section.unwrap_or("null"));
    let rollups: Vec<String> = rollups.iter().map(SweepRollup::to_json).collect();
    format!(
        "{{\"schema\":\"pp-metrics/v1\",\"engine\":{engine},\"trajectory\":{trajectory},\
         \"sweep\":{sweep},\"shard\":{shard},\"rollups\":[{}]}}\n",
        rollups.join(",")
    )
}

/// All experiment ids, in presentation order.
pub const EXPERIMENT_IDS: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "lemma2",
    "lemma4",
    "lemma6",
    "lemma7",
    "lemma8",
    "lemma12",
    "theorem1",
    "symmetric",
    "ablation",
    "attribution",
    "scheduler",
];

/// Runs the experiment with the given id.
///
/// `quick` shrinks population sizes and seed counts to smoke-test scale.
///
/// # Errors
///
/// Returns `Err` with the unknown id.
pub fn run_experiment(id: &str, quick: bool) -> Result<ExperimentOutput, String> {
    match id {
        "table1" => Ok(experiments::table1::run(quick)),
        "table2" => Ok(experiments::table2::run(quick)),
        "table3" => Ok(experiments::table3::run(quick)),
        "lemma2" => Ok(experiments::lemma2::run(quick)),
        "lemma4" => Ok(experiments::lemma4::run(quick)),
        "lemma6" => Ok(experiments::lemma6::run(quick)),
        "lemma7" => Ok(experiments::lemma7::run(quick)),
        "lemma8" => Ok(experiments::lemma8::run(quick)),
        "lemma12" => Ok(experiments::lemma12::run(quick)),
        "theorem1" => Ok(experiments::theorem1::run(quick)),
        "symmetric" => Ok(experiments::symmetric::run(quick)),
        "ablation" => Ok(experiments::ablation::run(quick)),
        "attribution" => Ok(experiments::attribution::run(quick)),
        "scheduler" => Ok(experiments::scheduler::run(quick)),
        other => Err(format!("unknown experiment id `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_an_error() {
        assert!(run_experiment("nope", true).is_err());
    }

    #[test]
    fn ids_are_unique() {
        let mut ids = EXPERIMENT_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENT_IDS.len());
    }

    #[test]
    fn markdown_rendering_includes_tables_and_notes() {
        let mut t = Table::new(["a"]);
        t.push_row(["1"]);
        let out = ExperimentOutput {
            id: "demo",
            title: "Demo",
            notes: vec!["a note".into()],
            tables: vec![("main".into(), t)],
        };
        let md = out.to_markdown();
        assert!(md.contains("## `demo`"));
        assert!(md.contains("### main"));
        assert!(md.contains("* a note"));
    }
}
