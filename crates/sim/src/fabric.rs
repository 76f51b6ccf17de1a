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
//!   claims/<start>.claim   cross-process block claims, each naming its shard
//!   shard_<k>/claim.txt    the claim body shard k's claims hard-link to
//!   shard_<k>/journal.txt  ppsweep v3 journal of the jobs shard k ran
//!   shard_<k>/manifest.json  machine-readable shard exit summary
//!   journal.txt            canonical merged journal (written by the merge)
//! ```
//!
//! Work is claimed at **block** granularity ([`sweep_bundles`]' same-`n`
//! seed blocks): a worker runs the journal's block driver over the
//! unclaimed blocks and gates each on atomically linking
//! `claims/<start>.claim`, so shards never duplicate work — *dynamic range
//! claiming*, not static partitioning. The job space's heavy tail is what
//! rules static shards out: whichever shard owned the straggler would cap
//! the whole run. Instead a worker runs its blocks largest-`n`-first
//! ([`cost_order`]'s LPT schedule), and any idle worker can pick up
//! whatever remains. `--job-limit J` (at least 1) bounds one invocation's
//! fresh jobs: blocks are *selected* in job order until the planned jobs
//! reach `J` (overshoot at most `block − 1` jobs, whatever the thread
//! count) and only then ordered largest-`n`-first.
//!
//! # Merge contract
//!
//! Each job's result is a deterministic function of
//! `(protocol, n, seed, max_steps)` — never of which process, thread,
//! block, or rerun ran it — and shard journals record exact `f64`
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
//! A claim names its shard from the moment it exists: a worker writes the
//! body `"<shard> <pid>"` once to `shard_<k>/claim.txt` and claims a block
//! by hard-linking that file to `claims/<start>.claim`, which fails with
//! `AlreadyExists` exactly as `create_new` does. A worker killed mid-block
//! leaves its claim behind with no journal block; rerunning the same shard
//! takes it back: a worker reruns every block whose claim names its own
//! shard and that its journal does not hold whole, deterministically, to
//! the same bits. A claim naming another shard waits for that shard's
//! rerun, and a claim whose body names no shard stays held until it is
//! removed by hand. So recovery needs one live process per shard id: two
//! processes of one shard would both rerun its unfinished blocks. A worker
//! that died *after* journaling loses nothing: its journal is read by the
//! merge whether or not the process exited cleanly. Torn final blocks are
//! tolerated by the journal loader and rerun whole.
//!
//! [`Summary`]: pp_stats::Summary
//! [`cost_order`]: crate::runner::cost_order

use crate::checkpoint::{
    drive_blocks, fingerprint, load_journal, open_journal_for_append, render_block,
    write_atomically, HEADER_PREFIX, JOURNAL_FILE,
};
use crate::runner::{
    aggregate_points, check_seeds, run_bundle, sweep_bundles, sweep_flat, worker_count,
    SweepBundle, SweepPoint,
};
use pp_engine::LeaderElection;
use pp_stats::Table;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shard manifest file name inside a shard directory.
const MANIFEST_FILE: &str = "manifest.json";

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
/// `shard_<shard>/journal.txt`, and writes the shard manifest on exit.
///
/// Reinvoking with the same directory resumes: blocks already journaled or
/// claimed by another shard are left alone, and blocks this shard claimed
/// without journaling them whole (a killed run) are rerun (see [Crash
/// recovery](self#crash-recovery)). `job_limit` bounds the *fresh* jobs of
/// this invocation, block-granularly (see the [module docs](self));
/// hitting it with unclaimed blocks left over reports `suspended`.
///
/// # Errors
///
/// `InvalidInput` when `shard ≥ MAX_SHARDS`, `spec.seeds ≥ 2^32` or
/// `job_limit` is `Some(0)` (a worker that may run nothing would suspend
/// forever);
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
    if job_limit == Some(0) {
        let msg = "a worker's job limit must be at least 1";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    let started = Instant::now();
    crate::set_sweep_shard(Some(shard));
    let fp = spec.fingerprint();
    let claims = dir.join(CLAIMS_DIR);
    std::fs::create_dir_all(&claims)?;
    let my_dir = shard_dir(dir, shard);
    std::fs::create_dir_all(&my_dir)?;
    let journal_path = my_dir.join(JOURNAL_FILE);
    let mut done = load_journal(&journal_path, fp, spec.total_jobs())?;
    // Always leave a headed journal: the merge refuses foreign shards by it.
    open_journal_for_append(&journal_path, fp)?;
    // Written once, by rename, so the claims of an earlier run keep their
    // body.
    let (body, pid) = (my_dir.join("claim.txt"), std::process::id());
    write_atomically(&body, format!("{shard} {pid}\n").as_bytes())?;
    // A held block would count against the job limit only to be declined,
    // so a limited rerun would pick the same held blocks forever. This
    // shard's own claims stay in: the drive skips the journaled ones and
    // reruns the rest.
    let mut owned = HashSet::new();
    let mut bundles = spec.bundles();
    bundles.retain(|bundle| {
        let claim = std::fs::read_to_string(claim_path(&claims, bundle.start));
        if matches!(&claim, Err(e) if e.kind() == io::ErrorKind::NotFound) {
            return true;
        }
        let mine = claim.ok().as_deref().and_then(claim_shard) == Some(shard);
        if mine {
            owned.insert(bundle.start);
        }
        mine
    });
    // A suspended worker never strands a claim: the limit is applied when
    // blocks are selected, before any is claimed (only a killed worker
    // strands one, and its rerun takes it back).
    let (fresh_jobs, suspended) = drive_blocks(
        &bundles,
        &mut done,
        job_limit,
        &journal_path,
        fp,
        |bundle| {
            let mine = owned.contains(&bundle.start) || claim_bundle(&claims, &body, bundle.start)?;
            Ok(mine.then(|| run_bundle(&make, bundle.n, &bundle.seeds, spec.max_steps)))
        },
    )?;

    let manifest = ShardManifest {
        shard,
        pid,
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

/// Atomically claims block `start` by hard-linking the claim body file
/// `body` to its claim: the link fails with `AlreadyExists` when the claim
/// exists, as `create_new` does, so exactly one worker — across all
/// processes sharing the directory — wins each block, and the claim names
/// its shard from the moment it exists.
fn claim_bundle(claims: &Path, body: &Path, start: usize) -> io::Result<bool> {
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
    /// Parsed manifests of the shard directories that had one.
    pub manifests: Vec<ShardManifest>,
}

/// Merges shard journals `shard_0 .. shard_<shards>` under `dir`. When the
/// union covers every job, writes the canonical merged journal to
/// `dir/journal.txt` and returns the aggregated points; otherwise reports
/// how many jobs are missing (rerun the shard workers, then merge again).
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
    fn out_of_range_inputs_are_invalid_input_errors() {
        // Seeds past the packed job index, shard ids past MAX_SHARDS and a
        // zero job limit are refused before any job list is built or any
        // file written.
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
        let spec = spec();
        invalid(run_worker_shard(|_| Fratricide, &spec, &dir.0, MAX_SHARDS, None).map(drop));
        invalid(run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(0)).map(drop));
        invalid(merge_shards(&spec, &dir.0, MAX_SHARDS + 1).map(drop));
        assert!(
            !dir.0.exists(),
            "refused calls must not touch the directory"
        );
    }

    /// A complete shard journal and manifest of [`spec`], written by a
    /// real worker: the seed bytes the hostile inputs below mutate.
    fn real_shard_files() -> (Vec<u8>, Vec<u8>) {
        let dir = Scratch::new("hostile_seed");
        run_worker_shard(|_| Fratricide, &spec(), &dir.0, 0, None).expect("worker runs");
        let read = |name| std::fs::read(shard_dir(&dir.0, 0).join(name)).unwrap();
        (read(JOURNAL_FILE), read(MANIFEST_FILE))
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
            (journal, manifest, claim) in {
                let (journal, manifest) = real_shard_files();
                (hostile(journal), hostile(manifest), hostile(b"0 4242\n".to_vec()))
            }
        ) {
            let dir = Scratch::new("hostile");
            std::fs::create_dir_all(shard_dir(&dir.0, 0)).unwrap();
            std::fs::write(shard_dir(&dir.0, 0).join(JOURNAL_FILE), &journal).unwrap();
            std::fs::write(shard_dir(&dir.0, 0).join(MANIFEST_FILE), &manifest).unwrap();
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
