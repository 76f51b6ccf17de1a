//! Multi-process sweep fabric: sharded sweeps with a bit-identical merge.
//!
//! The engine saturates a single core on every workload shape, so the next
//! throughput lever is horizontal: run one sweep grid across several OS
//! processes (or boxes sharing a directory) and merge the shards back into
//! exactly the artifact a sequential sweep would have produced.
//!
//! # Shard model
//!
//! A *fabric run* lives in one directory:
//!
//! ```text
//! dir/
//!   claims/<start>.claim   cross-process block claims (create_new is atomic)
//!   shard_<k>/journal.txt  ppsweep v3 journal of the jobs shard k ran
//!   shard_<k>/manifest.json  machine-readable shard exit summary
//!   shard_<k>/progress.txt   "done total" snapshot for live aggregation
//!   journal.txt            canonical merged journal (written by the merge)
//! ```
//!
//! Work is claimed at **block** granularity ([`sweep_bundles`]' same-`n`
//! seed blocks): a worker runs the checkpointed sweep's block driver over
//! the unclaimed blocks and gates each on atomically creating
//! `claims/<start>.claim`, so shards never duplicate work — *dynamic range
//! claiming*, not static partitioning. The job space's heavy tail is what
//! rules static shards out: whichever shard owned the straggler would cap
//! the whole run. Instead a worker runs its blocks largest-`n`-first
//! ([`cost_order`]'s LPT schedule), and any idle worker can pick up
//! whatever remains. `--job-limit` is the driver's rule: blocks are
//! *selected* in job order (overshoot at most `block − 1` jobs, whatever
//! the thread count) and only then ordered largest-`n`-first.
//!
//! # Merge contract
//!
//! Each job's result is a deterministic function of
//! `(protocol, n, seed, max_steps)` — never of which process, thread,
//! block, or retry round ran it — and shard journals record exact `f64`
//! bit patterns. The merge unions the shard journals (refusing mismatched
//! fingerprints and, defensively, conflicting duplicates), then renders the
//! *canonical journal*: blocks in block-start order, a pure
//! function of the results. Aggregation replays job-index order exactly as
//! [`crate::stabilization_sweep`] traverses it, and [`Summary`] retains raw
//! values so in-order accumulation is bit-exact. Sequential run, 1 shard,
//! 40 shards, crashed-and-resumed shards: same bytes, same checksums
//! ([`Summary::checksum`] is the witness surfaced in [`points_table`]).
//!
//! # Crash recovery
//!
//! A worker that dies mid-block leaves its claim behind with no journal
//! block. Between retry rounds the orchestrator calls
//! [`clean_stale_claims`] — drop every claim whose block is not fully
//! journaled in *some* shard — and relaunches workers; the released blocks
//! get re-claimed and rerun, deterministically, to the same bits. A worker
//! that died *after* journaling loses nothing: its journal is read by the
//! merge whether or not the process exited cleanly. Torn final blocks are
//! tolerated by the journal loader and rerun whole.
//!
//! [`Summary`]: pp_stats::Summary
//! [`cost_order`]: crate::runner::cost_order

use crate::checkpoint::{
    drive_blocks, fingerprint, journaled, load_journal, open_journal_for_append, render_block,
    write_atomically, HEADER_PREFIX, JOURNAL_FILE,
};
use crate::runner::{
    aggregate_points, check_seeds, run_bundle, sweep_bundles, sweep_flat, worker_count,
    SweepBundle, SweepPoint,
};
use pp_engine::LeaderElection;
use pp_stats::Table;
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shard manifest file name inside a shard directory.
const MANIFEST_FILE: &str = "manifest.json";

/// Progress snapshot file name inside a shard directory.
const PROGRESS_FILE: &str = "progress.txt";

/// Claim directory name inside a fabric run directory.
const CLAIMS_DIR: &str = "claims";

/// Hard cap on shard ids — far above any useful fan-out, low enough that
/// shard ids always fit the rollups' `i64` encoding.
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
    /// results do not depend on it, the journal layout and claims do.
    pub lanes: usize,
}

impl FabricSpec {
    /// The run's journal fingerprint: the checkpoint fingerprint of the
    /// grid (which covers the block width) extended over the protocol name
    /// with the same FNV-1a step.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fingerprint(
            &self.ns,
            self.seeds,
            self.master_seed,
            self.max_steps,
            Some(self.lanes),
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

    fn bundles(&self) -> Vec<SweepBundle> {
        sweep_bundles(&self.ns, self.seeds, self.master_seed, self.lanes)
    }

    /// `InvalidInput` unless the seed count fits the packed job index and
    /// `shards` shard ids fit under [`MAX_SHARDS`]: every entry point's
    /// first step, before it builds a job list.
    fn check(&self, shards: u64) -> io::Result<()> {
        check_seeds(self.seeds)?;
        if shards <= MAX_SHARDS {
            return Ok(());
        }
        let msg = format!("shard ids must be below {MAX_SHARDS} (got {shards} shards)");
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

/// Machine-readable shard exit summary (`manifest.json`), hand-rolled JSON
/// like the rest of the workspace.
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
    /// Worker threads inside the shard process.
    pub threads: u64,
    /// Wall-clock seconds of the final invocation.
    pub wall_seconds: f64,
    /// `false` when the invocation suspended at a job limit.
    pub complete: bool,
}

impl ShardManifest {
    /// Serializes the manifest as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"pp-sweep-shard/v1\",\"shard\":{},\"pid\":{},\
             \"fingerprint\":\"{:016x}\",\"jobs\":{},\"threads\":{},\
             \"wall_seconds\":{},\"complete\":{}}}\n",
            self.shard,
            self.pid,
            self.fingerprint,
            self.jobs,
            self.threads,
            self.wall_seconds,
            self.complete
        )
    }

    /// Parses [`Self::to_json`]'s output; `None` on any malformation or an
    /// unknown schema.
    pub fn parse(text: &str) -> Option<Self> {
        if scan_field(text, "schema")? != "\"pp-sweep-shard/v1\"" {
            return None;
        }
        Some(Self {
            shard: scan_field(text, "shard")?.parse().ok()?,
            pid: scan_field(text, "pid")?.parse().ok()?,
            fingerprint: u64::from_str_radix(
                scan_field(text, "fingerprint")?.trim_matches('"'),
                16,
            )
            .ok()?,
            jobs: scan_field(text, "jobs")?.parse().ok()?,
            threads: scan_field(text, "threads")?.parse().ok()?,
            wall_seconds: scan_field(text, "wall_seconds")?.parse().ok()?,
            complete: scan_field(text, "complete")?.parse().ok()?,
        })
    }
}

/// The raw text of `"key":` up to the next `,` or `}` — enough of a JSON
/// scanner for the flat objects this module writes.
fn scan_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = &text[at..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Runs one worker shard of the grid: claims unclaimed blocks from the
/// shared claim directory, journals each completed block into
/// `shard_<shard>/journal.txt`, keeps a live progress snapshot, and writes
/// the shard manifest on exit.
///
/// Reinvoking with the same directory resumes: blocks already claimed
/// (here, elsewhere, or by a killed run) are left alone. `job_limit` bounds
/// the *fresh* jobs of this invocation by the checkpointed sweep's rule;
/// hitting it with unclaimed blocks left over reports `suspended`.
///
/// # Errors
///
/// `InvalidInput` when `shard ≥ MAX_SHARDS` or `spec.seeds ≥ 2^32`;
/// otherwise the first claim / journal / manifest I/O error, or a shard
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
    let started = Instant::now();
    crate::set_sweep_shard(Some(shard));
    let fp = spec.fingerprint();
    let total = spec.total_jobs();
    let claims = dir.join(CLAIMS_DIR);
    std::fs::create_dir_all(&claims)?;
    // A held block would count against the job limit only to be declined,
    // so a limited rerun would pick the same held blocks forever.
    let bundles: Vec<SweepBundle> = spec
        .bundles()
        .into_iter()
        .filter(|bundle| !claim_path(&claims, bundle.start).exists())
        .collect();
    let my_dir = shard_dir(dir, shard);
    std::fs::create_dir_all(&my_dir)?;
    let journal_path = my_dir.join(JOURNAL_FILE);
    let mut done = load_journal(&journal_path, fp, total)?;
    // Always leave a headed journal: the merge refuses foreign shards by it.
    open_journal_for_append(&journal_path, fp)?;
    let journaled = done.len();
    write_progress(&my_dir, journaled, total)?;
    // A suspended worker never strands a claim: the limit is applied when
    // blocks are selected, before any is claimed (only a killed worker
    // strands one — that's what clean_stale_claims is for).
    let (fresh_jobs, suspended) = drive_blocks(
        &bundles,
        &mut done,
        job_limit,
        &journal_path,
        fp,
        |bundle| {
            Ok(claim_bundle(&claims, bundle.start, shard)?
                .then(|| run_bundle(&make, bundle.n, &bundle.seeds, spec.max_steps)))
        },
        // Under the journal lock, so the last progress write is the final
        // count.
        |_, fresh| {
            let _ = write_progress(&my_dir, journaled + fresh, total);
        },
    )?;

    let manifest = ShardManifest {
        shard,
        pid: std::process::id(),
        fingerprint: fp,
        jobs: done.len() as u64,
        threads: worker_count(bundles.len()) as u64,
        wall_seconds: started.elapsed().as_secs_f64(),
        complete: !suspended,
    };
    write_atomically(&my_dir.join(MANIFEST_FILE), manifest.to_json().as_bytes())?;
    Ok(ShardOutcome {
        fresh_jobs,
        suspended,
    })
}

/// Atomically claims block `start`: `create_new` is atomic on every
/// platform the workspace targets, so exactly one worker — across all
/// processes sharing the directory — wins each block. The file body
/// records the claimant for post-mortems; only its existence matters.
fn claim_bundle(claims: &Path, start: usize, shard: u64) -> io::Result<bool> {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(claim_path(claims, start))
    {
        Ok(mut file) => {
            let _ = writeln!(file, "{shard} {}", std::process::id());
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// The claim file of block `start` in claim directory `claims`.
fn claim_path(claims: &Path, start: usize) -> PathBuf {
    claims.join(format!("{start}.claim"))
}

/// Atomically rewrites a shard's `progress.txt` as `"<done> <total>"`.
fn write_progress(shard_dir: &Path, done: usize, total: usize) -> io::Result<()> {
    write_atomically(
        &shard_dir.join(PROGRESS_FILE),
        format!("{done} {total}\n").as_bytes(),
    )
}

/// Sums the shard progress snapshots into `(jobs done, jobs total)`.
/// Missing or unreadable snapshots count zero — progress is advisory, the
/// journals are the truth.
pub fn aggregate_progress(dir: &Path, shards: u64) -> (usize, usize) {
    let mut done = 0;
    let mut total = 0;
    for shard in 0..shards {
        if let Ok(text) = std::fs::read_to_string(shard_dir(dir, shard).join(PROGRESS_FILE)) {
            let mut fields = text.split_ascii_whitespace();
            let d: Option<usize> = fields.next().and_then(|v| v.parse().ok());
            let t: Option<usize> = fields.next().and_then(|v| v.parse().ok());
            if let (Some(d), Some(t)) = (d, t) {
                done += d;
                total = t;
            }
        }
    }
    (done, total)
}

/// Removes claims on blocks no shard journal has completed: their
/// claimants died between claiming and journaling. Call between retry
/// rounds, never while workers run — a live worker's in-flight claim is
/// indistinguishable from a dead one's until its journal block lands.
/// Returns the number of claims released.
///
/// # Errors
///
/// `InvalidInput` when `shards > MAX_SHARDS` or `spec.seeds ≥ 2^32`;
/// journal I/O errors, a fingerprint-mismatched or conflicting shard
/// journal, or a claim that cannot be removed.
pub fn clean_stale_claims(spec: &FabricSpec, dir: &Path, shards: u64) -> io::Result<usize> {
    let done = union_journals(spec, dir, shards)?;
    let mut removed = 0;
    for bundle in spec.bundles() {
        if journaled(&bundle, &done) {
            continue;
        }
        match std::fs::remove_file(claim_path(&dir.join(CLAIMS_DIR), bundle.start)) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(removed)
}

/// What a merge found.
#[derive(Debug)]
pub struct MergeReport {
    /// Aggregated sweep points when every job was journaled somewhere —
    /// bit-identical to the sequential sweep's — `None` otherwise.
    pub points: Option<Vec<SweepPoint>>,
    /// Jobs with no journaled result in any shard.
    pub missing: usize,
    /// Parsed manifests of the shard directories that had one.
    pub manifests: Vec<ShardManifest>,
}

/// Merges shard journals `shard_0 .. shard_<shards>` under `dir`. When the
/// union covers every job, writes the canonical merged journal to
/// `dir/journal.txt` and returns the aggregated points; otherwise reports
/// how many jobs are missing (rerun workers, then merge again).
///
/// # Errors
///
/// `InvalidInput` when `shards > MAX_SHARDS` or `spec.seeds ≥ 2^32`; I/O
/// errors; a shard journal whose header fingerprint does not match
/// `spec` (mixed-fingerprint shard directories are refused, `InvalidData`);
/// or shard journals that disagree on a job's exact result — impossible for
/// honestly-produced shards, since runs are deterministic, so disagreement
/// means foreign state and the merge must not guess.
pub fn merge_shards(spec: &FabricSpec, dir: &Path, shards: u64) -> io::Result<MergeReport> {
    let done = union_journals(spec, dir, shards)?;
    let total = spec.total_jobs();
    let manifests = (0..shards)
        .filter_map(|shard| {
            let text = std::fs::read_to_string(shard_dir(dir, shard).join(MANIFEST_FILE));
            ShardManifest::parse(&text.ok()?)
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
    write_atomically(
        &dir.join(JOURNAL_FILE),
        canonical_journal(spec, spec.fingerprint(), &flat).as_bytes(),
    )?;
    Ok(MergeReport {
        points: Some(aggregate_points(&spec.ns, spec.seeds, &flat)),
        missing: 0,
        manifests,
    })
}

/// The union of the shard journals `shard_0 .. shard_<shards>` under
/// `dir`, after [`FabricSpec::check`]. Refuses mismatched fingerprints and
/// shard journals that disagree on a job's exact result (`InvalidData`).
fn union_journals(
    spec: &FabricSpec,
    dir: &Path,
    shards: u64,
) -> io::Result<HashMap<usize, (bool, f64)>> {
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
    Ok(done)
}

/// Runs the whole grid in this process and writes the canonical journal —
/// the fabric's 0-shard baseline, producing exactly the artifacts a
/// sharded run merges to.
///
/// # Errors
///
/// `InvalidInput` when `spec.seeds ≥ 2^32`; journal write errors.
pub fn run_sequential<P, F>(make: F, spec: &FabricSpec, dir: &Path) -> io::Result<Vec<SweepPoint>>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    spec.check(0)?;
    std::fs::create_dir_all(dir)?;
    let flat = sweep_flat(
        &spec.ns,
        spec.seeds,
        spec.master_seed,
        spec.lanes,
        |bundle| run_bundle(&make, bundle.n, &bundle.seeds, spec.max_steps),
    );
    write_atomically(
        &dir.join(JOURNAL_FILE),
        canonical_journal(spec, spec.fingerprint(), &flat).as_bytes(),
    )?;
    Ok(aggregate_points(&spec.ns, spec.seeds, &flat))
}

/// Renders the canonical journal of a fully-known job list: the `ppsweep
/// v3` header plus one block per [`sweep_bundles`] entry, in block-start
/// order. A pure function of the results — which process ran which block,
/// in what order, across how many crashes, leaves no trace —
/// so every complete run of the same spec renders the same bytes.
fn canonical_journal(spec: &FabricSpec, fp: u64, flat: &[(bool, f64)]) -> String {
    let mut text = format!("{HEADER_PREFIX} {fp:016x}\n");
    for bundle in spec.bundles() {
        let range = bundle.start..bundle.start + bundle.seeds.len();
        render_block(&mut text, bundle.start, &flat[range]);
    }
    text
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
    use pp_protocols::Fratricide;

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
        let manifest = ShardManifest {
            shard: 3,
            pid: 4242,
            fingerprint: 0x0123_4567_89ab_cdef,
            jobs: 17,
            threads: 2,
            wall_seconds: 1.25,
            complete: true,
        };
        let parsed = ShardManifest::parse(&manifest.to_json()).expect("roundtrip");
        assert_eq!(parsed, manifest);
        assert_eq!(ShardManifest::parse("{}"), None);
        assert_eq!(
            ShardManifest::parse("{\"schema\":\"pp-sweep-shard/v9\",\"shard\":0}"),
            None
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
        // The manifest records the whole grid.
        assert_eq!(report.manifests.len(), 1);
        assert_eq!(report.manifests[0].jobs, spec.total_jobs() as u64);
        assert!(report.manifests[0].complete);
    }

    #[test]
    fn claims_prevent_duplicate_work_across_shards() {
        let spec = spec();
        let dir = Scratch::new("two_shards");
        let first = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("shard 0 runs");
        // Shard 0 claimed everything; shard 1 finds no work but still exits
        // complete with a manifest.
        let second =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 1, None).expect("shard 1 runs");
        assert_eq!(first.fresh_jobs, spec.total_jobs());
        assert_eq!(second.fresh_jobs, 0);
        assert!(!second.suspended);
        let report = merge_shards(&spec, &dir.0, 2).expect("merge succeeds");
        assert_eq!(report.missing, 0);
        assert_eq!(report.manifests.len(), 2);
    }

    #[test]
    fn stale_claim_blocks_bundle_until_cleaned() {
        let spec = spec();
        let dir = Scratch::new("stale_claim");
        // Fake a worker that died after claiming block 0 and before
        // journaling it.
        let claims = dir.0.join(CLAIMS_DIR);
        std::fs::create_dir_all(&claims).unwrap();
        assert!(claim_bundle(&claims, 0, 7).expect("claim dir is writable"));
        let outcome =
            run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
        assert_eq!(outcome.fresh_jobs, spec.total_jobs() - 2, "block 0 held");
        let report = merge_shards(&spec, &dir.0, 1).expect("merge reads journals");
        assert_eq!(report.missing, 2);
        assert!(report.points.is_none());
        // The orchestrator's retry round: release dead claims, rerun, merge.
        assert_eq!(clean_stale_claims(&spec, &dir.0, 1).unwrap(), 1);
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("retry runs");
        assert_eq!(outcome.fresh_jobs, 2);
        let report = merge_shards(&spec, &dir.0, 1).expect("merge succeeds");
        let merged = report.points.expect("complete after retry");
        let seq = Scratch::new("stale_claim_seq");
        let points = run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");
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
        // Same for the claim janitor, which reads the same journals.
        let err = clean_stale_claims(&spec, &dir.0, 2).expect_err("janitor must refuse too");
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
    fn progress_snapshots_aggregate_across_shards() {
        let spec = spec();
        let dir = Scratch::new("progress");
        run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("worker runs");
        let (done, total) = aggregate_progress(&dir.0, 1);
        assert_eq!((done, total), (spec.total_jobs(), spec.total_jobs()));
        // A shard with no snapshot contributes nothing rather than erroring.
        let (done_two, total_two) = aggregate_progress(&dir.0, 2);
        assert_eq!((done_two, total_two), (done, total));
    }

    #[test]
    fn job_limit_holds_across_racing_worker_threads() {
        // Regression: each worker thread used to check the budget before
        // any block had finished, so with 4 threads a limit of 1 journaled
        // the whole grid. The limit is now applied when blocks are
        // selected: exactly one width-2 block runs, whatever the threads.
        let spec = spec();
        assert!(spec.bundles().len() >= 4);
        let dir = Scratch::new("racing_limit");
        let threads = std::env::var("PP_SIM_THREADS").ok();
        std::env::set_var("PP_SIM_THREADS", "4");
        let outcome = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(1));
        match threads {
            Some(v) => std::env::set_var("PP_SIM_THREADS", v),
            None => std::env::remove_var("PP_SIM_THREADS"),
        }
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
        assert!(claim_bundle(&dir.0.join(CLAIMS_DIR), 4, 7).expect("claim dir is writable"));
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
    fn out_of_range_inputs_are_invalid_input_errors() {
        // Seeds past the packed job index, and shard ids past MAX_SHARDS,
        // are refused before any job list is built or any file written.
        let dir = Scratch::new("invalid_input");
        let mut huge = spec();
        huge.seeds = 1 << 32;
        let invalid = |result: io::Result<()>| {
            let err = result.expect_err("out-of-range input must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        };
        invalid(run_sequential(|_| Fratricide, &huge, &dir.0).map(drop));
        invalid(run_worker_shard(|_| Fratricide, &huge, &dir.0, 0, None).map(drop));
        invalid(merge_shards(&huge, &dir.0, 1).map(drop));
        invalid(clean_stale_claims(&huge, &dir.0, 1).map(drop));
        let spec = spec();
        invalid(run_worker_shard(|_| Fratricide, &spec, &dir.0, MAX_SHARDS, None).map(drop));
        invalid(merge_shards(&spec, &dir.0, MAX_SHARDS + 1).map(drop));
        invalid(clean_stale_claims(&spec, &dir.0, MAX_SHARDS + 1).map(drop));
        assert!(
            !dir.0.exists(),
            "refused calls must not touch the directory"
        );
    }
}
