//! Multi-process sweep fabric: one sweep grid run across several OS
//! processes (or boxes sharing a directory), merged back into exactly the
//! artifact a sequential sweep produces.
//!
//! # Shard model
//!
//! A *fabric run* lives in one directory:
//!
//! ```text
//! dir/
//!   claims/<start>.claim   cross-process block claims, each naming its shard
//!   shard_<k>/claim.txt    the claim body shard k's claims hard-link to
//!   shard_<k>/journal.txt  ppsweep v3 journal of the jobs shard k ran
//!   shard_<k>/metrics.json shard k's metrics document: shard record, rollups
//!   journal.txt            canonical merged journal (written by the merge)
//!   metrics.json           the run's metrics document: sweep totals, rollups
//! ```
//!
//! Every `metrics.json` is one [`metrics_document`]. The seed is the unit
//! of work; the **block** ([`FabricSpec::lanes`] same-`n` seeds) is only
//! the unit a worker claims. A worker selects the unclaimed blocks, fans
//! their seeds out through the journal's seed driver largest-`n`-first (an
//! LPT schedule) and claims each block when its first seed starts, by
//! atomically linking `claims/<start>.claim`, so shards never duplicate
//! work — *dynamic range claiming*, not static partitioning. The job
//! space's heavy tail is what rules static shards out: whichever shard
//! owned the straggler would cap the whole run. Instead any idle worker
//! can pick up whatever remains.
//!
//! # Merge contract
//!
//! Each job's result is a deterministic function of
//! `(protocol, n, seed, max_steps)` — never of which process, thread,
//! block, or rerun ran it — and shard journals record exact `f64`
//! bit patterns. The merge unions the shard journals (refusing mismatched
//! fingerprints and, defensively, conflicting duplicates), then writes the
//! *canonical journal*: one record per job in job order, a pure
//! function of the results. Aggregation replays job-index order exactly as
//! [`crate::stabilization_sweep`] traverses it, and [`Summary`] retains raw
//! values so in-order accumulation is bit-exact. Sequential run, 1 shard,
//! 40 shards, crashed-and-resumed shards: same bytes, same checksums
//! ([`Summary::checksum`] is the witness surfaced in [`points_table`]). The
//! journals alone decide the merge, so shard directories an older binary
//! left (with a `manifest.json` beside another `metrics.json` layout) merge
//! too; a shard document it cannot parse only drops out of the metrics.
//!
//! # Crash recovery
//!
//! A claim names its shard from the moment it exists: a worker writes the
//! body `"<shard> <pid>"` once to `shard_<k>/claim.txt` and claims a block
//! by hard-linking that file to `claims/<start>.claim`, which fails with
//! `AlreadyExists` exactly as `create_new` does. A worker killed mid-block
//! leaves its claim behind with some of the block's records missing;
//! rerunning the same shard takes it back: a worker reruns the missing
//! seeds of every block whose claim names its own shard, deterministically,
//! to the same bits. So a kill loses only the seeds in flight. A claim
//! naming another shard waits for that shard's rerun, and a claim whose
//! body names no shard stays held until it is removed by hand. So recovery
//! needs one live process per shard id: two processes of one shard would
//! both rerun its unfinished blocks. A worker that died *after* journaling
//! loses nothing: its journal is read by the merge whether or not the
//! process exited cleanly. A torn final record is tolerated by the journal
//! loader and its seed reruns.
//!
//! [`Summary`]: pp_stats::Summary
//! [`Summary::checksum`]: pp_stats::Summary::checksum

use crate::checkpoint::{
    drive_seeds, fingerprint, load_journal, open_journal_for_append, write_atomically,
    write_canonical_journal, JOURNAL_FILE,
};
use crate::metrics_document;
use crate::runner::{
    aggregate_points, check_seeds, run_seed, sweep_flat, sweep_jobs, SweepPoint, SweepRollup,
};
use pp_engine::LeaderElection;
use pp_stats::Table;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Metrics document file name inside a run or shard directory.
const METRICS_FILE: &str = "metrics.json";

/// Claim directory name inside a fabric run directory.
const CLAIMS_DIR: &str = "claims";

/// Hard cap on shard ids, far above any useful fan-out.
pub const MAX_SHARDS: u64 = 4096;

/// One sweep grid as the fabric identifies it: every worker and the merge
/// must agree on all of these fields (they are fingerprinted into each
/// shard journal's header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSpec {
    /// Protocol name. Part of the fingerprint — two protocols' sweeps must
    /// never merge even when their numeric grids coincide — and resolved to
    /// a concrete protocol by the `ppsweep` binary.
    pub protocol: String,
    /// Population sizes, in presentation order.
    pub ns: Vec<usize>,
    /// Seeds (runs) per population size.
    pub seeds: u64,
    /// Master seed deriving every job's RNG stream.
    pub master_seed: u64,
    /// Per-run step budget (`u64::MAX` for unbounded).
    pub max_steps: u64,
    /// Seeds per claimed block ([`crate::sweep_lane_width`] in `ppsweep`).
    /// Explicit so every process of a run agrees on block composition;
    /// results and journals do not depend on it, the claims do.
    pub lanes: usize,
}

impl FabricSpec {
    /// The run's journal fingerprint: the journal fingerprint of the grid
    /// (which covers the block width) extended over the protocol name with
    /// the same FNV-1a step.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fingerprint(
            &self.ns,
            self.seeds,
            self.master_seed,
            self.max_steps,
            self.lanes,
        );
        for b in self.protocol.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Flat job count of the grid.
    pub fn total_jobs(&self) -> usize {
        self.ns.len() * self.seeds as usize
    }

    /// Start of the claim block holding job `i`: each size's seeds chunk
    /// into blocks of [`lanes`](Self::lanes) in job order, so a block never
    /// spans two entries of `ns`.
    fn block_start(&self, i: usize) -> usize {
        i - i % self.seeds as usize % self.lanes.max(1)
    }

    /// `InvalidInput` unless the seed count is at least 1 and fits the
    /// packed job index, and `shards` shard ids fit under [`MAX_SHARDS`]:
    /// every entry point's first step, before it builds a job list.
    fn check(&self, shards: u64) -> io::Result<()> {
        check_seeds(self.seeds)?;
        let msg = if self.seeds == 0 {
            "a sweep needs at least one seed per size".to_string()
        } else if shards > MAX_SHARDS {
            format!("shard ids must be below {MAX_SHARDS} (got {shards} shards)")
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
    }
}

/// The directory of shard `shard` inside fabric run directory `dir`.
pub fn shard_dir(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard_{shard}"))
}

/// How a worker invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Jobs this invocation executed and journaled (the rest were already
    /// journaled, or claimed by other shards).
    pub fresh_jobs: usize,
    /// `true` when the worker stopped at its job limit with blocks still
    /// unclaimed; rerun with the same directory to continue.
    pub suspended: bool,
}

/// A shard's exit summary: the `shard` section of its metrics document.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Shard id.
    pub shard: u64,
    /// OS process that ran the shard.
    pub pid: u32,
    /// The run fingerprint the shard journaled under.
    pub fingerprint: u64,
    /// Jobs journaled by this shard in total (across invocations).
    pub jobs: u64,
    /// Wall-clock seconds of the final invocation.
    pub wall_seconds: f64,
    /// `false` when the invocation suspended at a job limit.
    pub complete: bool,
}

impl ShardManifest {
    /// Serializes the record as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shard\":{},\"pid\":{},\"fingerprint\":\"{:016x}\",\"jobs\":{},\
             \"wall_seconds\":{},\"complete\":{}}}",
            self.shard, self.pid, self.fingerprint, self.jobs, self.wall_seconds, self.complete
        )
    }
}

/// Parses a worker's metrics document (see [`run_worker_shard`]) into its
/// shard record and rollups: the one reader of shard documents. `None`
/// unless the writer renders exactly `text` back from them, so any other
/// document (an older binary's files included) is refused whole.
fn parse_shard_document(text: &str) -> Option<(ShardManifest, Vec<SweepRollup>)> {
    let (_, rest) = text.split_once("\"shard\":{")?;
    let (record, list) = rest.split_once("},\"rollups\":[")?;
    let rollups = match list.strip_suffix("]}\n")? {
        "" => Vec::new(),
        list => list.split("},{").map(parse_rollup).collect::<Option<_>>()?,
    };
    let hex: String = field(record, "fingerprint")?;
    let record = ShardManifest {
        shard: field(record, "shard")?,
        pid: field(record, "pid")?,
        fingerprint: u64::from_str_radix(hex.trim_matches('"'), 16).ok()?,
        jobs: field(record, "jobs")?,
        wall_seconds: field(record, "wall_seconds")?,
        complete: field(record, "complete")?,
    };
    let document = metrics_document(None, None, None, Some(&record.to_json()), &rollups);
    (document == text).then_some((record, rollups))
}

/// One rollup of a shard document's list (the list split may cut its
/// braces off).
fn parse_rollup(object: &str) -> Option<SweepRollup> {
    Some(SweepRollup {
        jobs: field(object, "jobs")?,
        workers: field(object, "workers")?,
        wall_seconds: field(object, "wall_seconds")?,
        jobs_per_second: field(object, "jobs_per_second")?,
        pid: field(object, "pid")?,
        // `null` parses to `None`; the roundtrip refuses any other misfit.
        shard: field::<String>(object, "shard")?.parse().ok(),
    })
}

/// The value of `"key":` in a flat JSON object (up to the next `,`, `}` or
/// the end), parsed: enough of a reader for the objects this module writes.
fn field<T: std::str::FromStr>(object: &str, key: &str) -> Option<T> {
    let pat = format!("\"{key}\":");
    let rest = &object[object.find(&pat)? + pat.len()..];
    rest[..rest.find([',', '}']).unwrap_or(rest.len())]
        .trim()
        .parse()
        .ok()
}

/// The `sweep` section of a run's metrics document: the grid's jobs, the
/// shards merged (0 for a sequential run) and the sweep's wall time and
/// rate, `null` when this process did not time the sweep (a merge).
fn sweep_json(spec: &FabricSpec, shards: u64, wall_seconds: Option<f64>) -> String {
    let jobs = spec.total_jobs();
    let rate = wall_seconds.map(|secs| if secs > 0.0 { jobs as f64 / secs } else { 0.0 });
    let [wall_seconds, rate] =
        [wall_seconds, rate].map(|v| v.map_or("null".into(), |v| v.to_string()));
    format!(
        "{{\"jobs\":{jobs},\"shards\":{shards},\"wall_seconds\":{wall_seconds},\
         \"jobs_per_second\":{rate}}}"
    )
}

/// Runs one worker shard of the grid: runs the seeds of unclaimed blocks,
/// claiming each block from the shared claim directory when its first seed
/// starts, journals each finished seed into `shard_<shard>/journal.txt`,
/// and on exit writes `shard_<shard>/metrics.json`, a [`metrics_document`]
/// holding its [`ShardManifest`] and the rollup of the seeds this
/// invocation ran.
///
/// Reinvoking with the same directory resumes: jobs already journaled and
/// blocks claimed by another shard are left alone, and the missing seeds of
/// blocks this shard claimed (a killed run) are rerun (see [Crash
/// recovery](self#crash-recovery)). `job_limit` bounds the *fresh* jobs of
/// this invocation: whole blocks are selected in job order until the
/// selected jobs reach it (overshoot at most `lanes − 1`, whatever the
/// thread count), and hitting it with unclaimed blocks left over reports
/// `suspended`.
///
/// # Errors
///
/// `InvalidInput` when `shard ≥ MAX_SHARDS`, `spec.seeds` is 0 or
/// `≥ 2^32`, or `job_limit` is `Some(0)` (a worker that may run nothing
/// would suspend forever);
/// otherwise the first claim / journal / metrics I/O error, or a shard
/// journal whose fingerprint does not match `spec`.
pub fn run_worker_shard<P, F>(
    make: F,
    spec: &FabricSpec,
    dir: &Path,
    shard: u64,
    job_limit: Option<usize>,
) -> io::Result<ShardOutcome>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    // Shard ids 0..=shard must fit.
    spec.check(shard.saturating_add(1))?;
    if job_limit == Some(0) {
        let msg = "a worker's job limit must be at least 1";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    let started = Instant::now();
    let fp = spec.fingerprint();
    let claims = dir.join(CLAIMS_DIR);
    std::fs::create_dir_all(&claims)?;
    let my_dir = shard_dir(dir, shard);
    std::fs::create_dir_all(&my_dir)?;
    let journal_path = my_dir.join(JOURNAL_FILE);
    let mut done = load_journal(&journal_path, fp, spec.total_jobs())?;
    // Always leave a headed journal: the merge refuses foreign shards by it.
    let journal = open_journal_for_append(&journal_path, fp)?;
    // Written once, by rename, so the claims of an earlier run keep their
    // body.
    let (body, pid) = (my_dir.join("claim.txt"), std::process::id());
    write_atomically(&body, format!("{shard} {pid}\n").as_bytes())?;
    // A suspended worker never strands a claim: the limit is applied when
    // blocks are selected, before any is claimed (only a killed worker
    // strands one, and its rerun takes it back).
    let (pending, owned, suspended) = select_blocks(spec, &claims, shard, &done, job_limit);
    // One claim attempt per block and invocation: its outcome gates every
    // seed of the block.
    let claimed = Mutex::new(owned);
    let mine = |start: usize| -> io::Result<bool> {
        let mut claimed = claimed.lock().expect("claimers do not panic");
        if let Some(&mine) = claimed.get(&start) {
            return Ok(mine);
        }
        let won = claim_block(&claims, &body, start);
        claimed.insert(start, matches!(won, Ok(true)));
        won
    };
    let jobs = sweep_jobs(&spec.ns, spec.seeds, spec.master_seed);
    let rollup = drive_seeds(&jobs, &pending, journal, &mut done, |i| {
        let (n, seed) = jobs[i];
        Ok(mine(spec.block_start(i))?.then(|| run_seed(&make, n, seed, spec.max_steps)))
    })?;

    let record = ShardManifest {
        shard,
        pid,
        fingerprint: fp,
        jobs: done.len() as u64,
        wall_seconds: started.elapsed().as_secs_f64(),
        complete: !suspended,
    };
    let mut rollups: Vec<SweepRollup> = rollup.into_iter().collect();
    rollups.iter_mut().for_each(|r| r.shard = Some(shard));
    let document = metrics_document(None, None, None, Some(&record.to_json()), &rollups);
    write_atomically(&my_dir.join(METRICS_FILE), document.as_bytes())?;
    Ok(ShardOutcome {
        fresh_jobs: rollup.map_or(0, |r| r.jobs as usize),
        suspended,
    })
}

/// Selects a worker invocation's jobs: the unjournaled jobs of every block
/// no other shard holds, whole blocks in job order until the selected jobs
/// reach `job_limit`. A held block would count against the limit only to
/// be declined, so a limited rerun would pick the same held blocks forever.
/// Returns the jobs, the selected blocks whose claim already names `shard`
/// (a killed run's, taken back), and whether the limit left blocks over.
fn select_blocks(
    spec: &FabricSpec,
    claims: &Path,
    shard: u64,
    done: &HashMap<usize, (bool, f64)>,
    job_limit: Option<usize>,
) -> (Vec<usize>, HashMap<usize, bool>, bool) {
    let limit = job_limit.unwrap_or(usize::MAX);
    let (mut pending, mut owned) = (Vec::new(), HashMap::new());
    let (mut block, mut take) = (usize::MAX, false);
    for i in (0..spec.total_jobs()).filter(|i| !done.contains_key(i)) {
        if spec.block_start(i) != block {
            block = spec.block_start(i);
            // `None` when unclaimed, else whether the claim names `shard`
            // (a claim that cannot be read names none).
            let holder = match std::fs::read_to_string(claim_path(claims, block)) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                claim => Some(claim.ok().as_deref().and_then(claim_shard) == Some(shard)),
            };
            take = holder != Some(false);
            if take && pending.len() >= limit {
                return (pending, owned, true);
            }
            if holder == Some(true) {
                owned.insert(block, true);
            }
        }
        if take {
            pending.push(i);
        }
    }
    (pending, owned, false)
}

/// Atomically claims block `start` by hard-linking the claim body file
/// `body` to its claim: the link fails with `AlreadyExists` when the claim
/// exists, as `create_new` does, so exactly one worker — across all
/// processes sharing the directory — wins each block, and the claim names
/// its shard from the moment it exists.
fn claim_block(claims: &Path, body: &Path, start: usize) -> io::Result<bool> {
    match std::fs::hard_link(body, claim_path(claims, start)) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// The shard a claim body `"<shard> <pid>\n"` names; `None` for any other
/// body (empty, torn or garbage).
fn claim_shard(body: &str) -> Option<u64> {
    let (shard, pid) = body.strip_suffix('\n')?.split_once(' ')?;
    pid.parse::<u32>().ok()?;
    shard.parse().ok()
}

/// The claim file of block `start` in claim directory `claims`.
fn claim_path(claims: &Path, start: usize) -> PathBuf {
    claims.join(format!("{start}.claim"))
}

/// What a merge found.
#[derive(Debug)]
pub struct MergeReport {
    /// Aggregated sweep points when every job was journaled somewhere —
    /// bit-identical to the sequential sweep's — `None` otherwise.
    pub points: Option<Vec<SweepPoint>>,
    /// Jobs with no journaled result in any shard.
    pub missing: usize,
    /// The shard records of the shard directories whose metrics document
    /// parsed, each with the rollups of its last invocation.
    pub manifests: Vec<(ShardManifest, Vec<SweepRollup>)>,
}

/// Merges shard journals `shard_0 .. shard_<shards>` under `dir`. When the
/// union covers every job, writes the canonical merged journal to
/// `dir/journal.txt` and the run's [`metrics_document`] to
/// `dir/metrics.json` (the shards' rollups, and a `null` sweep time: a
/// merge does not time the sweep) and returns the aggregated points;
/// otherwise reports how many jobs are missing (rerun the shard workers,
/// then merge again).
///
/// # Errors
///
/// `InvalidInput` when `shards > MAX_SHARDS` or `spec.seeds` is 0 or
/// `≥ 2^32`; I/O
/// errors; a shard journal whose header fingerprint does not match
/// `spec` (mixed-fingerprint shard directories are refused, `InvalidData`);
/// or shard journals that disagree on a job's exact result — impossible for
/// honestly-produced shards, since runs are deterministic, so disagreement
/// means foreign state and the merge must not guess.
pub fn merge_shards(spec: &FabricSpec, dir: &Path, shards: u64) -> io::Result<MergeReport> {
    spec.check(shards)?;
    let (fp, total) = (spec.fingerprint(), spec.total_jobs());
    let mut done = HashMap::new();
    for shard in 0..shards {
        for (i, result) in load_journal(&shard_dir(dir, shard).join(JOURNAL_FILE), fp, total)? {
            let Some(prior) = done.insert(i, result) else {
                continue;
            };
            if prior.0 != result.0 || prior.1.to_bits() != result.1.to_bits() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard journals under {} disagree on job {i}; runs are \
                         deterministic, so divergent duplicates mean foreign shard state",
                        dir.display()
                    ),
                ));
            }
        }
    }
    let manifests: Vec<_> = (0..shards)
        .filter_map(|shard| {
            let text = std::fs::read_to_string(shard_dir(dir, shard).join(METRICS_FILE));
            text.ok().as_deref().and_then(parse_shard_document)
        })
        .collect();
    let missing = total - done.len();
    if missing > 0 {
        return Ok(MergeReport {
            points: None,
            missing,
            manifests,
        });
    }
    let flat: Vec<(bool, f64)> = (0..total).map(|i| done[&i]).collect();
    write_canonical_journal(&dir.join(JOURNAL_FILE), fp, &flat)?;
    let sweep = sweep_json(spec, shards, None);
    let rollups: Vec<SweepRollup> = manifests
        .iter()
        .flat_map(|(_, r)| r.iter().copied())
        .collect();
    let document = metrics_document(None, None, Some(&sweep), None, &rollups);
    write_atomically(&dir.join(METRICS_FILE), document.as_bytes())?;
    Ok(MergeReport {
        points: Some(aggregate_points(&spec.ns, spec.seeds, &flat)),
        missing: 0,
        manifests,
    })
}

/// Runs the whole grid in this process, one seed per [`parallel_map`]
/// item, and writes the canonical journal — the fabric's 0-shard baseline,
/// producing exactly the journal a sharded run merges to — and the run's
/// [`metrics_document`] (the sweep's wall time and its one rollup).
///
/// [`parallel_map`]: crate::parallel_map
///
/// # Errors
///
/// `InvalidInput` when `spec.seeds` is 0 or `≥ 2^32`; journal write
/// errors.
pub fn run_sequential<P, F>(make: F, spec: &FabricSpec, dir: &Path) -> io::Result<Vec<SweepPoint>>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    spec.check(0)?;
    let started = Instant::now();
    std::fs::create_dir_all(dir)?;
    let (flat, rollup) = sweep_flat(
        &make,
        &spec.ns,
        spec.seeds,
        spec.master_seed,
        spec.max_steps,
    );
    write_canonical_journal(&dir.join(JOURNAL_FILE), spec.fingerprint(), &flat)?;
    let sweep = sweep_json(spec, 0, Some(started.elapsed().as_secs_f64()));
    let document = metrics_document(None, None, Some(&sweep), None, &[rollup]);
    write_atomically(&dir.join(METRICS_FILE), document.as_bytes())?;
    Ok(aggregate_points(&spec.ns, spec.seeds, &flat))
}

/// Renders sweep points as the fabric's results table. The `checksum`
/// column is [`pp_stats::Summary::checksum`], the bit-exactness witness:
/// matching checksums mean the shard-merged summary reproduced the
/// sequential sweep's exact observations, not merely cells that round the
/// same way.
pub fn points_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new([
        "n",
        "runs",
        "unconverged",
        "mean_time",
        "sd",
        "p95",
        "checksum",
    ]);
    for p in points {
        table.push_row([
            p.n.to_string(),
            p.times.count().to_string(),
            p.unconverged.to_string(),
            format!("{:.4}", p.times.mean()),
            format!("{:.4}", p.times.std_dev()),
            format!("{:.4}", p.times.quantile(0.95)),
            format!("{:016x}", p.times.checksum()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::with_threads;
    use pp_protocols::Fratricide;
    use proptest::prelude::*;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("ppfabric_test_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn spec() -> FabricSpec {
        FabricSpec {
            protocol: "fratricide".into(),
            ns: vec![16, 32],
            seeds: 5,
            master_seed: 42,
            max_steps: u64::MAX,
            lanes: 2,
        }
    }

    #[test]
    fn fingerprint_separates_protocols() {
        let a = spec();
        let mut b = spec();
        b.protocol = "pll".into();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn manifest_json_roundtrips() {
        // The shard record and its rollups roundtrip through the one shard
        // document; any other document is refused, never half-read.
        let manifest = ShardManifest {
            shard: 3,
            pid: 4242,
            fingerprint: 0x0123_4567_89ab_cdef,
            jobs: 17,
            wall_seconds: 1.25,
            complete: true,
        };
        let rollup = |jobs| SweepRollup {
            jobs,
            workers: 2,
            wall_seconds: 0.5,
            jobs_per_second: jobs as f64 / 0.5,
            pid: 4242,
            shard: Some(3),
        };
        for rollups in [vec![], vec![rollup(9)], vec![rollup(9), rollup(8)]] {
            let text = metrics_document(None, None, None, Some(&manifest.to_json()), &rollups);
            let parsed = parse_shard_document(&text).expect("roundtrip");
            assert_eq!(parsed, (manifest.clone(), rollups));
        }
        let text = metrics_document(None, None, None, Some(&manifest.to_json()), &[rollup(9)]);
        let sweep = sweep_json(&spec(), 0, Some(1.0));
        for other in [
            String::new(),
            "{}".to_string(),
            text.replace("pp-metrics/v1", "pp-metrics/v9"),
            text.replace("\"jobs\":9", "\"jobs\":-9"),
            text.replace("\"pid\":4242,\"fingerprint", "\"fingerprint"),
            // An older binary's record, with the retired `threads` field.
            text.replace("\"jobs\":17,", "\"jobs\":17,\"threads\":2,"),
            text[..text.len() - 3].to_string(),
            metrics_document(None, None, Some(&sweep), None, &[rollup(9)]),
            format!("{{\"rollups\":[{}]}}\n", rollup(9).to_json()),
        ] {
            assert_eq!(parse_shard_document(&other), None, "accepted {other:?}");
        }
    }

    /// The rollups of the metrics document at `path`.
    fn document_rollups(path: &Path) -> String {
        let text = std::fs::read_to_string(path).expect("a metrics document");
        assert!(text.starts_with("{\"schema\":\"pp-metrics/v1\","), "{text}");
        text[text.find("\"rollups\":").unwrap()..].to_string()
    }

    #[test]
    fn rollups_count_the_jobs_a_fan_out_ran() {
        // Regression: rollups counted the blocks a fan-out visited. A
        // sequential one-size 8-seed sweep (one 8-seed block) reported 1
        // job, and a worker over two sizes of 12 seeds (blocks of 8 and 4)
        // reported 4 for 24 journaled jobs.
        let mut spec = spec();
        (spec.ns, spec.seeds, spec.lanes) = (vec![4096], 8, 8);
        let seq = Scratch::new("rollup_seq");
        run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");
        let rollups = document_rollups(&seq.0.join(METRICS_FILE));
        assert!(
            rollups.starts_with("\"rollups\":[{\"jobs\":8,"),
            "{rollups}"
        );
        assert_eq!(rollups.matches("\"jobs\":").count(), 1, "{rollups}");

        (spec.ns, spec.seeds) = (vec![4096, 2048], 12);
        let dir = Scratch::new("rollup_worker");
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker");
        assert_eq!(outcome.fresh_jobs, 24);
        let shard = shard_dir(&dir.0, 0);
        let text = std::fs::read_to_string(shard.join(METRICS_FILE)).unwrap();
        let (record, rollups) = parse_shard_document(&text).expect("a shard document");
        assert_eq!((record.shard, record.jobs, record.complete), (0, 24, true));
        assert_eq!(rollups.len(), 1);
        assert_eq!((rollups[0].jobs, rollups[0].shard), (24, Some(0)));
        let mut files: Vec<String> = std::fs::read_dir(&shard)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["claim.txt", "journal.txt", "metrics.json"]);
        // The merge carries the shard's rollup into the run's document.
        merge_shards(&spec, &dir.0, 1)
            .expect("merge")
            .points
            .expect("complete");
        let merged = document_rollups(&dir.0.join(METRICS_FILE));
        assert_eq!(
            merged,
            format!("\"rollups\":[{}]}}\n", rollups[0].to_json())
        );
    }

    #[test]
    fn old_two_file_shard_layout_still_merges() {
        // An older binary left a manifest.json and a schemaless
        // {"rollups":[...]} metrics.json in each shard directory. The
        // journals alone decide the merge: it completes to the sequential
        // bytes, and the unreadable documents only drop out of the metrics.
        let spec = spec();
        let dir = Scratch::new("old_layout");
        run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
        let shard = shard_dir(&dir.0, 0);
        let manifest = format!(
            "{{\"shard\":0,\"pid\":4242,\"fingerprint\":\"{:016x}\",\"jobs\":10,\
             \"threads\":2,\"wall_seconds\":0.01,\"complete\":true}}\n",
            spec.fingerprint()
        );
        std::fs::write(shard.join("manifest.json"), manifest).unwrap();
        let rollup = "{\"jobs\":6,\"workers\":2,\"wall_seconds\":0.01,\
                      \"jobs_per_second\":600,\"pid\":4242,\"shard\":0}";
        std::fs::write(
            shard.join(METRICS_FILE),
            format!("{{\"rollups\":[{rollup}]}}\n"),
        )
        .unwrap();
        let report = merge_shards(&spec, &dir.0, 1).expect("merge reads the journals");
        assert!(report.manifests.is_empty());
        assert_merges_to_sequential(&spec, &dir, 1);
        assert_eq!(
            document_rollups(&dir.0.join(METRICS_FILE)),
            "\"rollups\":[]}\n"
        );
    }

    #[test]
    fn one_shard_run_merges_bit_identically_to_sequential() {
        let spec = spec();
        let seq = Scratch::new("seq");
        let sharded = Scratch::new("one_shard");
        let points = run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");
        let outcome =
            run_worker_shard(|_| Fratricide, &spec, &sharded.0, 0, None).expect("worker runs");
        assert!(!outcome.suspended);
        assert_eq!(outcome.fresh_jobs, spec.total_jobs());
        let report = merge_shards(&spec, &sharded.0, 1).expect("merge succeeds");
        assert_eq!(report.missing, 0);
        let merged = report.points.expect("complete merge yields points");
        // Same table bytes (which includes the Summary checksums) and the
        // same canonical journal bytes.
        assert_eq!(
            points_table(&points).to_csv(),
            points_table(&merged).to_csv()
        );
        let seq_journal = std::fs::read(seq.0.join(JOURNAL_FILE)).unwrap();
        let merged_journal = std::fs::read(sharded.0.join(JOURNAL_FILE)).unwrap();
        assert_eq!(seq_journal, merged_journal);
        // The shard record holds the whole grid.
        assert_eq!(report.manifests.len(), 1);
        assert_eq!(report.manifests[0].0.jobs, spec.total_jobs() as u64);
        assert!(report.manifests[0].0.complete);
    }

    #[test]
    fn claims_prevent_duplicate_work_across_shards() {
        let spec = spec();
        let dir = Scratch::new("two_shards");
        let first = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("shard 0 runs");
        // Shard 0 claimed everything; shard 1 finds no work but still exits
        // complete with a shard record.
        let second =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 1, None).expect("shard 1 runs");
        assert_eq!(first.fresh_jobs, spec.total_jobs());
        assert_eq!(second.fresh_jobs, 0);
        assert!(!second.suspended);
        let report = merge_shards(&spec, &dir.0, 2).expect("merge succeeds");
        assert_eq!(report.missing, 0);
        assert_eq!(report.manifests.len(), 2);
    }

    /// Writes block `start`'s claim with body `body`, as a worker of
    /// another run (or a hand edit) left it.
    fn fake_claim(dir: &Scratch, start: usize, body: &[u8]) {
        let claims = dir.0.join(CLAIMS_DIR);
        std::fs::create_dir_all(&claims).unwrap();
        std::fs::write(claim_path(&claims, start), body).unwrap();
    }

    /// Merges `shards` shards under `dir` and requires the sequential run's
    /// exact table (checksums included) and canonical journal bytes.
    fn assert_merges_to_sequential(spec: &FabricSpec, dir: &Scratch, shards: u64) {
        let merged = merge_shards(spec, &dir.0, shards).expect("merge reads the shards");
        let merged = merged.points.expect("every job is journaled");
        let seq = Scratch(dir.0.with_extension("seq"));
        let points = run_sequential(|_| Fratricide, spec, &seq.0).expect("sequential runs");
        assert_eq!(
            points_table(&points).to_csv(),
            points_table(&merged).to_csv()
        );
        assert_eq!(
            std::fs::read(seq.0.join(JOURNAL_FILE)).unwrap(),
            std::fs::read(dir.0.join(JOURNAL_FILE)).unwrap()
        );
    }

    #[test]
    fn stale_claim_blocks_bundle_until_its_shard_reruns() {
        let spec = spec();
        let dir = Scratch::new("stale_claim");
        // Fake shard 7 dying after claiming block 0 and before journaling
        // it.
        fake_claim(&dir, 0, b"7 4242\n");
        let outcome =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
        assert_eq!(outcome.fresh_jobs, spec.total_jobs() - 2, "block 0 held");
        let report = merge_shards(&spec, &dir.0, 8).expect("merge reads journals");
        assert_eq!(report.missing, 2);
        assert!(report.points.is_none());
        // Rerunning shard 7 takes its claim back and completes the grid.
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 7, None).expect("rerun");
        assert_eq!(outcome.fresh_jobs, 2);
        assert_merges_to_sequential(&spec, &dir, 8);
    }

    #[test]
    fn rerun_worker_takes_back_only_its_own_claims() {
        // Blocks [0,2) [2,4) [4,5) [5,7) [7,9) [9,10). Killed workers left
        // claims with no journal record: block 0 by shard 0, block 2 by
        // shard 7, and two claims whose body names no shard.
        let spec = spec();
        let dir = Scratch::new("own_claims");
        let held: [(usize, &[u8]); 3] = [(2, b"7 4242\n"), (5, b""), (7, b"garbage\n")];
        fake_claim(&dir, 0, b"0 4242\n");
        for (start, body) in held {
            fake_claim(&dir, start, body);
        }
        let worker = |shard| {
            run_worker_shard(|_| Fratricide, &spec, &dir.0, shard, None).expect("worker runs")
        };
        // Shard 0 reruns its own block 0 and runs the unclaimed 4 and 9.
        assert_eq!(worker(0).fresh_jobs, 4);
        let missing = || merge_shards(&spec, &dir.0, 8).expect("merge").missing;
        assert_eq!(missing(), 6);
        for (start, body) in held {
            let claim = claim_path(&dir.0.join(CLAIMS_DIR), start);
            assert_eq!(
                std::fs::read(claim).unwrap(),
                body,
                "claim {start} untouched"
            );
        }
        // Shard 7's rerun recovers its own claim, and nothing else.
        assert_eq!(worker(7).fresh_jobs, 2);
        assert_eq!(missing(), 4);
        // Claims that name no shard stay held until removed by hand.
        assert_eq!(worker(0).fresh_jobs, 0);
        for start in [5, 7] {
            std::fs::remove_file(claim_path(&dir.0.join(CLAIMS_DIR), start)).unwrap();
        }
        assert_eq!(worker(0).fresh_jobs, 4);
        assert_merges_to_sequential(&spec, &dir, 8);
    }

    #[test]
    fn claim_bodies_name_exactly_one_shard() {
        assert_eq!(claim_shard("0 4242\n"), Some(0));
        assert_eq!(claim_shard("4095 1\n"), Some(4095));
        for body in [
            "", "0", "0\n", "0 4242", "0 x\n", "x 1\n", "0 1 2\n", " 0 1\n",
        ] {
            assert_eq!(claim_shard(body), None, "accepted {body:?}");
        }
    }

    #[test]
    fn merge_refuses_mixed_fingerprint_shards() {
        let spec = spec();
        let dir = Scratch::new("mixed_fp");
        run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("shard 0 runs");
        // Shard 1 journaled a *different* sweep (other master seed): its
        // journal header cannot match this spec's fingerprint.
        let mut foreign = spec.clone();
        foreign.master_seed = 43;
        run_worker_shard(|_| Fratricide, &foreign, &dir.0, 1, None).expect("foreign shard runs");
        let err = merge_shards(&spec, &dir.0, 2).expect_err("mixed fingerprints must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn suspended_worker_resumes_from_its_journal() {
        let spec = spec();
        let dir = Scratch::new("suspend_resume");
        // 10 jobs in width-2 blocks; a limit of 3 suspends after 2 blocks.
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(3))
            .expect("limited worker runs");
        assert!(outcome.suspended);
        assert!(outcome.fresh_jobs >= 3, "block-granular overshoot allowed");
        let resumed =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("resume runs");
        assert!(!resumed.suspended);
        assert_eq!(resumed.fresh_jobs + outcome.fresh_jobs, spec.total_jobs());
        let report = merge_shards(&spec, &dir.0, 1).expect("merge succeeds");
        assert_eq!(report.missing, 0);
    }

    #[test]
    fn job_limit_holds_across_racing_worker_threads() {
        // Regression: each worker thread used to check the budget before
        // any block had finished, so with 4 threads a limit of 1 journaled
        // the whole grid. The limit is now applied when blocks are
        // selected: exactly one width-2 block runs, whatever the threads.
        let spec = spec();
        assert!(
            (0..spec.total_jobs())
                .filter(|&i| spec.block_start(i) == i)
                .count()
                >= 4
        );
        let dir = Scratch::new("racing_limit");
        let outcome = with_threads("4", || {
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(1))
        });
        let outcome = outcome.expect("limited worker runs");
        assert_eq!(outcome.fresh_jobs, 2);
        assert!(outcome.suspended);
    }

    #[test]
    fn limited_worker_skips_blocks_claimed_elsewhere() {
        // Blocks [0,2) [2,4) [4,5) [5,7) [7,9) [9,10). Shard 0 runs the
        // first; a dead worker holds [4,5). Shard 1 at limit 2 must never
        // select either: each invocation journals fresh work until nothing
        // unclaimed is left, then reports complete.
        let spec = spec();
        let dir = Scratch::new("held_blocks");
        let first = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(2)).expect("shard 0");
        assert_eq!(first.fresh_jobs, 2);
        fake_claim(&dir, 4, b"7 4242\n");
        let limited = |shard| {
            run_worker_shard(|_| Fratricide, &spec, &dir.0, shard, Some(2)).expect("worker runs")
        };
        let outcome = limited(1);
        assert_eq!(outcome.fresh_jobs, 2);
        assert!(outcome.suspended);
        let mut fresh = outcome.fresh_jobs;
        for _ in 0..spec.total_jobs() {
            let outcome = limited(1);
            assert!(outcome.fresh_jobs > 0, "a limited rerun must progress");
            fresh += outcome.fresh_jobs;
            if !outcome.suspended {
                break;
            }
        }
        assert_eq!(fresh, spec.total_jobs() - 3);
        let idle = limited(1);
        assert_eq!((idle.fresh_jobs, idle.suspended), (0, false));
    }

    #[test]
    fn claim_blocks_partition_the_job_list() {
        // 5 seeds at width 2 → blocks [2, 2, 1] per size; blocks never
        // span sizes, and every job maps to the start of its block.
        let spec = spec();
        let starts: Vec<usize> = (0..spec.total_jobs())
            .map(|i| spec.block_start(i))
            .collect();
        assert_eq!(starts, [0, 0, 2, 2, 4, 5, 5, 7, 7, 9]);
    }

    #[test]
    fn a_one_block_worker_fans_its_seeds_over_every_thread() {
        // Regression: a worker ran each claimed block on one thread, so a
        // grid of one block idled every other core.
        let mut spec = spec();
        (spec.ns, spec.seeds, spec.lanes) = (vec![64], 4, 4);
        let dir = Scratch::new("one_block_threads");
        let outcome = with_threads("4", || {
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None)
        });
        assert_eq!(outcome.expect("worker runs").fresh_jobs, 4);
        let text = std::fs::read_to_string(shard_dir(&dir.0, 0).join(METRICS_FILE)).unwrap();
        let (_, rollups) = parse_shard_document(&text).expect("a shard document");
        assert_eq!(rollups.len(), 1);
        assert_eq!((rollups[0].jobs, rollups[0].workers), (4, 4));
    }

    #[test]
    fn partly_journaled_own_block_reruns_only_its_missing_seeds() {
        // A worker killed mid-block journaled 3 of the block's 4 seeds
        // under its own claim: its rerun runs just the missing seed.
        let mut spec = spec();
        (spec.ns, spec.seeds, spec.lanes) = (vec![16], 4, 4);
        let dir = Scratch::new("partial_block");
        run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
        let journal = shard_dir(&dir.0, 0).join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.pop().map(|l| l.starts_with("done ")), Some(true));
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();
        let claim = std::fs::read_to_string(claim_path(&dir.0.join(CLAIMS_DIR), 0)).unwrap();
        assert_eq!(claim_shard(&claim), Some(0));
        let rerun = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("rerun");
        assert_eq!((rerun.fresh_jobs, rerun.suspended), (1, false));
        assert_merges_to_sequential(&spec, &dir, 1);
    }

    #[test]
    fn legacy_block_marker_journal_resumes_and_merges_to_sequential() {
        // Journals of older binaries frame their records in `block` markers;
        // this one holds block [0,2) whole, [2,4) torn after one record and
        // [6,8) whole. The resume runs only the 3 missing seeds, and the
        // merge writes the sequential run's marker-free canonical journal.
        let mut spec = spec();
        (spec.ns, spec.seeds) = (vec![16, 24], 4);
        let seq = Scratch::new("legacy_seq");
        run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");
        let canonical = std::fs::read_to_string(seq.0.join(JOURNAL_FILE)).unwrap();
        let lines: Vec<&str> = canonical.lines().collect();
        assert_eq!(
            lines.len(),
            1 + spec.total_jobs(),
            "header + one record per job"
        );
        assert!(lines[1..].iter().all(|l| l.starts_with("done ")));
        let legacy = [
            lines[0],
            "block 0 2",
            lines[1],
            lines[2],
            "block 2 2",
            lines[3],
            "block 6 2",
            lines[7],
            lines[8],
        ];
        let dir = Scratch::new("legacy_markers");
        std::fs::create_dir_all(shard_dir(&dir.0, 0)).unwrap();
        let journal = shard_dir(&dir.0, 0).join(JOURNAL_FILE);
        std::fs::write(&journal, legacy.join("\n") + "\n").unwrap();
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("resumes");
        assert_eq!((outcome.fresh_jobs, outcome.suspended), (3, false));
        assert_merges_to_sequential(&spec, &dir, 1);
    }

    #[test]
    fn out_of_range_inputs_are_invalid_input_errors() {
        // Zero seeds, seeds past the packed job index, shard ids past
        // MAX_SHARDS and a zero job limit are refused before any job list is built or any
        // file written.
        let dir = Scratch::new("invalid_input");
        let invalid = |result: io::Result<()>| {
            let err = result.expect_err("out-of-range input must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        };
        // Zero seeds used to write a zero-run row that read like a mean.
        for seeds in [1 << 32, 0] {
            let mut bad = spec();
            bad.seeds = seeds;
            invalid(run_sequential(|_| Fratricide, &bad, &dir.0).map(drop));
            invalid(run_worker_shard(|_| Fratricide, &bad, &dir.0, 0, None).map(drop));
            invalid(merge_shards(&bad, &dir.0, 1).map(drop));
        }
        let spec = spec();
        invalid(run_worker_shard(|_| Fratricide, &spec, &dir.0, MAX_SHARDS, None).map(drop));
        invalid(run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(0)).map(drop));
        invalid(merge_shards(&spec, &dir.0, MAX_SHARDS + 1).map(drop));
        assert!(
            !dir.0.exists(),
            "refused calls must not touch the directory"
        );
    }

    /// A complete shard journal and metrics document of [`spec`], written
    /// by a real worker: the seed bytes the hostile inputs below mutate.
    fn real_shard_files() -> (Vec<u8>, Vec<u8>) {
        let dir = Scratch::new("hostile_seed");
        run_worker_shard(|_| Fratricide, &spec(), &dir.0, 0, None).expect("worker runs");
        let read = |name| std::fs::read(shard_dir(&dir.0, 0).join(name)).unwrap();
        (read(JOURNAL_FILE), read(METRICS_FILE))
    }

    /// Arbitrary bytes (non-UTF-8 included), truncations of `real`, and
    /// `real` with one byte flipped.
    fn hostile(real: Vec<u8>) -> impl Strategy<Value = Vec<u8>> {
        let (cut, flip) = (real.clone(), real.clone());
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..256),
            (0..real.len()).prop_map(move |k| cut[..k].to_vec()),
            (0..real.len(), 1u8..=255).prop_map(move |(k, mask)| {
                let mut bytes = flip.clone();
                bytes[k] ^= mask;
                bytes
            }),
        ]
    }

    proptest! {
        #[test]
        fn hostile_shard_files_are_typed_errors_never_panics(
            (journal, metrics, claim) in {
                let (journal, metrics) = real_shard_files();
                (hostile(journal), hostile(metrics), hostile(b"0 4242\n".to_vec()))
            }
        ) {
            let dir = Scratch::new("hostile");
            std::fs::create_dir_all(shard_dir(&dir.0, 0)).unwrap();
            std::fs::write(shard_dir(&dir.0, 0).join(JOURNAL_FILE), &journal).unwrap();
            std::fs::write(shard_dir(&dir.0, 0).join(METRICS_FILE), &metrics).unwrap();
            // The one shard-document reader never panics on any bytes.
            let _ = std::str::from_utf8(&metrics).ok().and_then(parse_shard_document);
            fake_claim(&dir, 0, &claim);
            let spec = spec();
            let path = shard_dir(&dir.0, 0).join(JOURNAL_FILE);
            let before = load_journal(&path, spec.fingerprint(), spec.total_jobs());
            let rejected = |result: io::Result<()>| match result {
                Ok(()) => Ok(false),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(true),
                Err(e) => Err(TestCaseError::Fail(format!("untyped rejection: {e}"))),
            };
            let merge = rejected(merge_shards(&spec, &dir.0, 1).map(drop))?;
            let worker = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None);
            let work = rejected(worker.map(drop))?;
            // Both read the journal the same way.
            prop_assert_eq!((merge, before.is_err()), (work, work));
            if let Ok(before) = before {
                // An accepted journal is whole once the worker has run,
                // except for block 0 when its claim names another shard or
                // none: that claim holds whatever block 0 had not journaled.
                let owner = std::str::from_utf8(&claim).ok().and_then(claim_shard);
                let unjournaled = (0..2).filter(|i| !before.contains_key(i)).count();
                let report = merge_shards(&spec, &dir.0, 1);
                let missing = report.expect("the worker's journal merges").missing;
                prop_assert_eq!(missing, if owner == Some(0) { 0 } else { unjournaled });
            }
        }
    }
}
