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
//! seed blocks): a worker that wants a block atomically creates
//! `claims/<start>.claim` and runs it only on success, so shards never
//! duplicate work — *dynamic range claiming*, not static partitioning. The
//! job space's heavy tail (stabilization times straggle far past their
//! expectation) is what rules static shards out: whichever shard statically
//! owned the straggler would cap the whole run. Two levers bound the
//! makespan instead: blocks are claimed largest-`n`-first
//! ([`cost_order`]'s LPT schedule), and any idle worker — same box or not —
//! can pick up whatever remains.
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
    fingerprint, load_journal, open_journal_for_append, write_atomically, HEADER_PREFIX,
    JOURNAL_FILE,
};
use crate::runner::{
    aggregate_points, cost_order, run_bundle, sweep_bundles, sweep_flat, worker_count, SweepBundle,
    SweepPoint,
};
use pp_engine::LeaderElection;
use pp_stats::Table;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// Runs one worker shard of the grid: claims pending blocks from the
/// shared claim directory (largest-`n`-first), journals each completed
/// block into `shard_<shard>/journal.txt`, keeps a live progress snapshot,
/// and writes the shard manifest on exit.
///
/// Reinvoking with the same directory resumes: journaled blocks are
/// skipped, claimed-elsewhere blocks are left alone, and everything else
/// is up for claiming. `job_limit` bounds the *fresh* jobs of this
/// invocation (block-granular, like the checkpointed sweep's); hitting it
/// reports `suspended`.
///
/// # Errors
///
/// Journal / manifest I/O errors, or a shard journal whose fingerprint does
/// not match `spec`.
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
    assert!(shard < MAX_SHARDS, "shard id {shard} exceeds {MAX_SHARDS}");
    let started = Instant::now();
    crate::set_sweep_shard(Some(shard));
    let fp = spec.fingerprint();
    let bundles = spec.bundles();
    let total = spec.total_jobs();
    let claims = dir.join(CLAIMS_DIR);
    std::fs::create_dir_all(&claims)?;
    let my_dir = shard_dir(dir, shard);
    std::fs::create_dir_all(&my_dir)?;
    let journal_path = my_dir.join(JOURNAL_FILE);
    let done = load_journal(&journal_path, fp, total)?;
    let journaled = done.len();
    write_progress(&my_dir, journaled, total)?;

    let order = cost_order(&bundles);
    let journal = Mutex::new(open_journal_for_append(&journal_path, fp)?);
    let cursor = AtomicUsize::new(0);
    let fresh = AtomicUsize::new(0);
    let suspended = AtomicBool::new(false);
    let budget = job_limit.unwrap_or(usize::MAX);
    let workers = worker_count(bundles.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= order.len() {
                        break;
                    }
                    let bundle = &bundles[order[k]];
                    let range = bundle.start..bundle.start + bundle.seeds.len();
                    if range.clone().all(|i| done.contains_key(&i)) {
                        continue;
                    }
                    // Block-granular budget: checked before claiming, so a
                    // suspended worker never strands a claim (only a killed
                    // one does — that's what clean_stale_claims is for).
                    if fresh.load(Ordering::Relaxed) >= budget {
                        suspended.store(true, Ordering::Release);
                        break;
                    }
                    if !claim_bundle(&claims, bundle.start, shard) {
                        continue;
                    }
                    let results = run_bundle(&make, bundle.n, &bundle.seeds, spec.max_steps);
                    // One buffered append per block, exactly like the
                    // checkpointed sweep: a crash tears at most the final
                    // block, which the loader discards and the retry reruns.
                    let mut text = format!("block {} {}\n", bundle.start, bundle.seeds.len());
                    for (j, &(converged, time)) in results.iter().enumerate() {
                        let _ = writeln!(
                            text,
                            "done {} {} {:016x}",
                            bundle.start + j,
                            u8::from(converged),
                            time.to_bits()
                        );
                    }
                    // The progress snapshot is rewritten under the journal
                    // lock too, so concurrent threads publish it in order and
                    // the last write is the final count.
                    let mut file = journal.lock().expect("journal writers do not panic");
                    file.write_all(text.as_bytes())
                        .and_then(|()| file.flush())
                        .expect("shard journal append failed");
                    let so_far =
                        fresh.fetch_add(bundle.seeds.len(), Ordering::Relaxed) + bundle.seeds.len();
                    let _ = write_progress(&my_dir, journaled + so_far, total);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("a fabric worker thread panicked");
        }
    });

    let fresh_jobs = fresh.load(Ordering::Relaxed);
    let suspended = suspended.load(Ordering::Acquire);
    crate::runner::record_fanout_rollup(
        fresh_jobs as u64,
        workers as u64,
        started.elapsed().as_secs_f64(),
    );
    let manifest = ShardManifest {
        shard,
        pid: std::process::id(),
        fingerprint: fp,
        jobs: (journaled + fresh_jobs) as u64,
        threads: workers as u64,
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
fn claim_bundle(claims: &Path, start: usize, shard: u64) -> bool {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(claims.join(format!("{start}.claim")))
    {
        Ok(mut file) => {
            let _ = writeln!(file, "{shard} {}", std::process::id());
            true
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => false,
        Err(e) => panic!("claim file create failed: {e}"),
    }
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
/// Journal I/O errors, a fingerprint-mismatched shard journal, or a claim
/// that cannot be removed.
pub fn clean_stale_claims(spec: &FabricSpec, dir: &Path, shards: u64) -> io::Result<usize> {
    let fp = spec.fingerprint();
    let total = spec.total_jobs();
    let mut done: HashMap<usize, (bool, f64)> = HashMap::new();
    for shard in 0..shards {
        done.extend(load_journal(
            &shard_dir(dir, shard).join(JOURNAL_FILE),
            fp,
            total,
        )?);
    }
    let mut removed = 0;
    for bundle in spec.bundles() {
        let range = bundle.start..bundle.start + bundle.seeds.len();
        if range.clone().all(|i| done.contains_key(&i)) {
            continue;
        }
        match std::fs::remove_file(dir.join(CLAIMS_DIR).join(format!("{}.claim", bundle.start))) {
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
/// I/O errors; a shard journal whose header fingerprint does not match
/// `spec` (mixed-fingerprint shard directories are refused, `InvalidData`);
/// or shard journals that disagree on a job's exact result — impossible for
/// honestly-produced shards, since runs are deterministic, so disagreement
/// means foreign state and the merge must not guess.
pub fn merge_shards(spec: &FabricSpec, dir: &Path, shards: u64) -> io::Result<MergeReport> {
    let fp = spec.fingerprint();
    let total = spec.total_jobs();
    let mut done: HashMap<usize, (bool, f64)> = HashMap::new();
    let mut manifests = Vec::new();
    for shard in 0..shards {
        let sdir = shard_dir(dir, shard);
        let shard_done = load_journal(&sdir.join(JOURNAL_FILE), fp, total)?;
        for (i, result) in shard_done {
            if let Some(&prior) = done.get(&i) {
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
            } else {
                done.insert(i, result);
            }
        }
        if let Ok(text) = std::fs::read_to_string(sdir.join(MANIFEST_FILE)) {
            if let Some(manifest) = ShardManifest::parse(&text) {
                manifests.push(manifest);
            }
        }
    }
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
        canonical_journal(spec, fp, &flat).as_bytes(),
    )?;
    Ok(MergeReport {
        points: Some(aggregate_points(&spec.ns, spec.seeds, &flat)),
        missing: 0,
        manifests,
    })
}

/// Runs the whole grid in this process and writes the canonical journal —
/// the fabric's 0-shard baseline, producing exactly the artifacts a
/// sharded run merges to.
///
/// # Errors
///
/// Journal write errors.
pub fn run_sequential<P, F>(make: F, spec: &FabricSpec, dir: &Path) -> io::Result<Vec<SweepPoint>>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    std::fs::create_dir_all(dir)?;
    let flat = sweep_flat(
        &make,
        &spec.ns,
        spec.seeds,
        spec.master_seed,
        spec.max_steps,
        spec.lanes,
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
        let _ = writeln!(text, "block {} {}", bundle.start, bundle.seeds.len());
        for k in 0..bundle.seeds.len() {
            let (converged, time) = flat[bundle.start + k];
            let _ = writeln!(
                text,
                "done {} {} {:016x}",
                bundle.start + k,
                u8::from(converged),
                time.to_bits()
            );
        }
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
        assert!(claim_bundle(&claims, 0, 7));
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
}
