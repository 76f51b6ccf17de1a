//! Crash-recoverable sweeps: the block journal, the one block driver every
//! durable sweep runs on, and mid-job engine snapshots.
//!
//! A durable sweep records progress in a *journal* — a line-oriented text
//! file listing every completed job with its exact result — and,
//! optionally, periodic [`CountSimulation::snapshot`]s of jobs still in
//! flight. Killing the process at any point loses at most the work since
//! the last journal append / snapshot; rerunning the same sweep with the
//! same checkpoint directory picks up where it left off.
//!
//! # Journal format (`ppsweep v3`)
//!
//! The header line fingerprints the sweep parameters **and the execution
//! mode**. Two record kinds follow:
//!
//! * `done <job> <0|1> <f64-bits-hex>` — one completed job (one seed).
//! * `block <start> <len>` — a block marker: the `len` `done` records of
//!   block `[start, start + len)` follow as one appended block.
//!
//! # The block driver
//!
//! [`drive_blocks`] is the one loop behind every durable sweep: both modes
//! of [`stabilization_sweep_checkpointed`] and the fabric's
//! [`run_worker_shard`]. It selects pending blocks (any record missing) in
//! job order until the planned fresh jobs reach the job limit —
//! deterministic, overshooting by at most `block − 1` jobs — runs them
//! largest-`n`-first ([`cost_order`]) on [`parallel_map`], and appends each
//! finished block, marker plus records, in one buffered write through
//! [`render_block`], so a crash tears at most the final block. A block
//! missing any record reruns whole on resume; runs are deterministic, so
//! rerun seeds rewrite identical records. A block is
//! [`crate::sweep_lane_width`] seeds in the default block mode and one seed
//! in snapshot-interval mode, so each snapshot captures exactly one run
//! (older interval journals hold bare `done` lines, which load the same).
//!
//! # Determinism contract
//!
//! A killed-then-resumed sweep aggregates into [`SweepPoint`]s that are
//! **bit-identical** to an uninterrupted sweep with the same configuration:
//! job results are journaled as exact `f64` bit patterns and re-aggregated in
//! job-index order, so every mean, variance, and quantile string downstream
//! comes out byte-for-byte equal.
//!
//! With `snapshot_interval: None` each seed is driven exactly like
//! [`stabilization_sweep`] drives it, so the checkpointed sweep equals the
//! plain sweep bit-for-bit too. With `snapshot_interval: Some(i)` jobs are
//! driven in segments that end at fixed absolute step multiples of `i`;
//! segment boundaries are a function of the step counter alone, so a job
//! resumed from a snapshot replays the same boundaries and stays
//! bit-identical to the same job run without the kill *at the same
//! interval*. The two modes sample the same law but are not bit-comparable
//! to each other (a segment boundary truncates a batch or jump episode), so
//! the mode (and, in block mode, the block width, which shapes the journal)
//! is part of the journal fingerprint — resuming under a different mode or
//! width is an `InvalidData` error, not a silently non-reproducible answer.
//!
//! [`stabilization_sweep`]: crate::stabilization_sweep
//! [`parallel_map`]: crate::parallel_map
//! [`run_worker_shard`]: crate::fabric::run_worker_shard

use crate::runner::{
    aggregate_points, check_seeds, cost_order, parallel_map, run_bundle, sweep_bundles,
    SweepBundle, SweepPoint,
};
use pp_engine::{CountSimulation, LeaderElection, SnapshotState};
use pp_rand::Xoshiro256PlusPlus;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal file name inside a sweep's checkpoint directory.
pub(crate) const JOURNAL_FILE: &str = "journal.txt";

/// Journal header prefix; the version is part of the format. `v2` added
/// block markers and the execution mode in the fingerprint; `v3` renamed
/// the marker to `block` and dropped the round law from the fingerprint.
pub(crate) const HEADER_PREFIX: &str = "ppsweep v3";

/// Where and how a sweep checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding this sweep's journal and in-flight job snapshots.
    /// Created if absent. One directory per sweep — sweeps must not share.
    pub dir: PathBuf,
    /// Snapshot in-flight jobs every this many simulation steps (rounded to
    /// the next absolute multiple). `None` — the default — journals only
    /// completed blocks, which keeps the sweep bit-identical to the
    /// uncheckpointed one; `Some` runs width-1 blocks so each snapshot
    /// captures exactly one run.
    pub snapshot_interval: Option<u64>,
    /// Stop after completing this many *fresh* (not journaled) jobs and
    /// report [`SweepStatus::Suspended`]. `None` runs to completion. Used to
    /// bound a shard's work — and by the tests to simulate crashes at
    /// deterministic points. The limit is block-granular: the last block
    /// taken may overshoot it by up to `block − 1` jobs.
    pub job_limit: Option<usize>,
}

impl CheckpointConfig {
    /// A config that journals completed jobs in `dir` with no mid-job
    /// snapshots and no job limit.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_interval: None,
            job_limit: None,
        }
    }
}

/// Outcome of a checkpointed sweep invocation.
#[derive(Debug)]
pub enum SweepStatus {
    /// Every job has a journaled result; `points` aggregates them in job
    /// order, bit-identical to an uninterrupted sweep.
    Complete {
        /// One aggregated point per entry of `ns`, exactly as
        /// [`crate::stabilization_sweep`] would return them.
        points: Vec<SweepPoint>,
        /// Jobs executed by *this* invocation (the rest came from the
        /// journal).
        fresh_jobs: usize,
    },
    /// The job limit was reached with jobs still pending; rerun with the
    /// same checkpoint directory to continue.
    Suspended {
        /// Jobs executed by this invocation before suspending.
        fresh_jobs: usize,
    },
}

/// [`crate::stabilization_sweep`] with crash recovery: journals every
/// completed block under `ckpt.dir` and resumes from whatever a previous
/// invocation left there.
///
/// See the [module docs](self) for the determinism contract. The sweep
/// parameters — including the execution mode — are fingerprinted into the
/// journal header; reusing a checkpoint directory with different
/// parameters is an error (`InvalidData`), not a silent wrong answer.
///
/// # Errors
///
/// `InvalidInput` when `seeds ≥ 2^32`; otherwise the first journal /
/// snapshot I/O error, or a journal whose fingerprint does not match the
/// given parameters.
pub fn stabilization_sweep_checkpointed<P, F>(
    make: F,
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
    ckpt: &CheckpointConfig,
) -> io::Result<SweepStatus>
where
    P: LeaderElection,
    P::State: SnapshotState,
    F: Fn(usize) -> P + Sync,
{
    sweep_checkpointed_blocks(
        make,
        ns,
        seeds,
        master_seed,
        max_steps,
        ckpt,
        crate::sweep_lane_width(),
    )
}

/// [`stabilization_sweep_checkpointed`] in blocks of `block` seeds (one
/// seed per block in snapshot-interval mode).
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_checkpointed_blocks<P, F>(
    make: F,
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
    ckpt: &CheckpointConfig,
    block: usize,
) -> io::Result<SweepStatus>
where
    P: LeaderElection,
    P::State: SnapshotState,
    F: Fn(usize) -> P + Sync,
{
    check_seeds(seeds)?;
    // Interval mode fingerprints the mode, not a width: its blocks are
    // always one seed wide.
    let (width, block_mode) = match ckpt.snapshot_interval {
        Some(_) => (1, None),
        None => (block, Some(block)),
    };
    let fp = fingerprint(ns, seeds, master_seed, max_steps, block_mode);
    std::fs::create_dir_all(&ckpt.dir)?;
    let journal_path = ckpt.dir.join(JOURNAL_FILE);
    let total = ns.len() * seeds as usize;
    let mut done = load_journal(&journal_path, fp, total)?;
    let bundles = sweep_bundles(ns, seeds, master_seed, width);
    let (fresh_jobs, _) = drive_blocks(
        &bundles,
        &mut done,
        ckpt.job_limit,
        &journal_path,
        fp,
        |bundle| match ckpt.snapshot_interval {
            None => Ok(Some(run_bundle(&make, bundle.n, &bundle.seeds, max_steps))),
            Some(interval) => run_job(&make, bundle, max_steps, interval, &ckpt.dir)
                .map(|result| Some(vec![result])),
        },
        // A job's snapshot goes only once the job is journaled, so a crash
        // between the two at worst redoes a finished job.
        |bundle, _| {
            if ckpt.snapshot_interval.is_some() {
                let _ = std::fs::remove_file(job_snapshot_path(&ckpt.dir, bundle.start));
            }
        },
    )?;
    if done.len() < total {
        return Ok(SweepStatus::Suspended { fresh_jobs });
    }

    // Aggregate by contiguous job range in job-index order — the exact
    // traversal of the uncheckpointed sweep, so the summaries match it
    // bit-for-bit no matter which jobs came from the journal.
    let flat: Vec<(bool, f64)> = (0..total).map(|i| done[&i]).collect();
    Ok(SweepStatus::Complete {
        points: aggregate_points(ns, seeds, &flat),
        fresh_jobs,
    })
}

/// The block driver of every durable sweep (see the [module docs](self)):
/// runs the blocks of `bundles` that `done` does not fully journal, up to
/// `job_limit`, appends each to the journal at `path` (opened, header `fp`
/// first, only once a block is selected) and adds its results to `done`.
/// `run` returns a block's results in job order, or `None` to decline it
/// (the fabric's claim gate); `after_append(block, fresh jobs so far)` runs
/// under the journal lock. Returns the jobs it ran — a rerun block counts
/// whole — and whether the job limit stopped the selection with pending
/// blocks left over.
///
/// # Errors
///
/// The first error of `run` or of the journal. The failed block journals
/// nothing, and a failed append closes the journal — no block starts or
/// appends after it, so a torn write stays the final record.
pub(crate) fn drive_blocks<R, A>(
    bundles: &[SweepBundle],
    done: &mut HashMap<usize, (bool, f64)>,
    job_limit: Option<usize>,
    path: &Path,
    fp: u64,
    run: R,
    after_append: A,
) -> io::Result<(usize, bool)>
where
    R: Fn(&SweepBundle) -> io::Result<Option<Vec<(bool, f64)>>> + Sync,
    A: Fn(&SweepBundle, usize) + Sync,
{
    let limit = job_limit.unwrap_or(usize::MAX);
    let mut selected = vec![false; bundles.len()];
    let (mut planned, mut suspended) = (0, false);
    for (k, bundle) in bundles.iter().enumerate() {
        if journaled(bundle, done) {
            continue;
        }
        if planned >= limit {
            suspended = true;
            break;
        }
        planned += bundle.seeds.len();
        selected[k] = true;
    }
    // Selected in job order (the limit's semantics), scheduled
    // most-expensive-first. Results are journaled and aggregated by block
    // start, so the order changes makespan only, never a byte of output.
    let order: Vec<&SweepBundle> = cost_order(bundles)
        .into_iter()
        .filter(|&k| selected[k])
        .map(|k| &bundles[k])
        .collect();
    if order.is_empty() {
        return Ok((0, suspended));
    }
    let journal = Mutex::new((Some(open_journal_for_append(path, fp)?), 0));
    let lock = || journal.lock().expect("journal writers do not panic");
    let outcomes = parallel_map(&order, |bundle| -> io::Result<Option<_>> {
        if lock().0.is_none() {
            return Ok(None);
        }
        let Some(results) = run(bundle)? else {
            return Ok(None);
        };
        let mut text = String::new();
        render_block(&mut text, bundle.start, &results);
        let mut guard = lock();
        let (slot, fresh) = &mut *guard;
        let Some(file) = slot else {
            return Ok(None);
        };
        if let Err(e) = file.write_all(text.as_bytes()).and_then(|()| file.flush()) {
            *slot = None;
            return Err(e);
        }
        *fresh += results.len();
        after_append(bundle, *fresh);
        Ok(Some((bundle.start, results)))
    });
    for outcome in outcomes {
        if let Some((start, results)) = outcome? {
            done.extend((start..).zip(results));
        }
    }
    let fresh = lock().1;
    Ok((fresh, suspended))
}

/// Appends one block to `text`: its `block` marker, then the `done` record
/// of each job. The one writer of record text — the driver's appends and
/// the fabric's canonical journal both render through it.
pub(crate) fn render_block(text: &mut String, start: usize, results: &[(bool, f64)]) {
    let _ = writeln!(text, "block {start} {}", results.len());
    for (k, &(converged, time)) in results.iter().enumerate() {
        let _ = writeln!(
            text,
            "done {} {} {:016x}",
            start + k,
            u8::from(converged),
            time.to_bits()
        );
    }
}

/// Whether every job of `bundle` has a journaled result in `done`.
pub(crate) fn journaled(bundle: &SweepBundle, done: &HashMap<usize, (bool, f64)>) -> bool {
    (bundle.start..bundle.start + bundle.seeds.len()).all(|i| done.contains_key(&i))
}

/// Runs the one seed of a snapshot-interval mode block, resuming from its
/// snapshot file in `dir` when a readable one exists and writing fresh
/// snapshots at every interval boundary.
fn run_job<P, F>(
    make: &F,
    bundle: &SweepBundle,
    max_steps: u64,
    interval: u64,
    dir: &Path,
) -> io::Result<(bool, f64)>
where
    P: LeaderElection,
    P::State: SnapshotState,
    F: Fn(usize) -> P,
{
    // An unreadable or corrupt snapshot degrades to restarting the job from
    // its seed — same trajectory, just recomputed (segment boundaries are a
    // function of the step counter, so the replay takes the same path).
    let (n, seed) = (bundle.n, bundle.seeds[0]);
    let snapshot_path = job_snapshot_path(dir, bundle.start);
    let resumed = std::fs::read(&snapshot_path)
        .ok()
        .and_then(|bytes| CountSimulation::resume(make(n), &bytes).ok());
    let mut sim = resumed.unwrap_or_else(|| {
        CountSimulation::new(make(n), n, Xoshiro256PlusPlus::seed_from_u64(seed))
            .expect("population sizes are >= 2 by construction")
    });

    let interval = interval.max(1);
    loop {
        // Next absolute boundary strictly above the current step
        // count — identical whether this job runs straight through
        // or resumes from any snapshot.
        let target = (sim.steps() / interval + 1)
            .saturating_mul(interval)
            .min(max_steps);
        let out = sim.run_until_single_leader(target);
        if out.converged || sim.steps() >= max_steps {
            return Ok((out.converged, out.parallel_time(n)));
        }
        write_atomically(&snapshot_path, &sim.snapshot())?;
    }
}

/// The snapshot file of in-flight job `index`.
fn job_snapshot_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("job_{index}.ckpt"))
}

/// Writes via a temporary file + rename so readers never observe a torn
/// snapshot.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// FNV-1a 64 over the sweep parameters plus the execution mode: the
/// journal's compatibility check. `block_mode` is `Some(width)` in block
/// mode and `None` in snapshot-interval mode — the two modes' results
/// agree in law but not bit-for-bit, so mixing them in one journal must be
/// rejected, and the block width shapes the journal's blocks (and the
/// fabric's claims), so it must match too.
pub(crate) fn fingerprint(
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
    block_mode: Option<usize>,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(ns.len() as u64);
    for &n in ns {
        eat(n as u64);
    }
    eat(seeds);
    eat(master_seed);
    eat(max_steps);
    match block_mode {
        None => eat(0),
        Some(width) => {
            eat(1);
            eat(width as u64);
        }
    }
    h
}

/// Parses the journal at `path` (missing file → empty). Checks the header
/// fingerprint and tolerates exactly one trailing unparseable line (a record
/// cut short by a crash mid-append).
pub(crate) fn load_journal(
    path: &Path,
    fp: u64,
    job_count: usize,
) -> io::Result<HashMap<usize, (bool, f64)>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let lines: Vec<&str> = text.lines().collect();
    let Some((&header, records)) = lines.split_first() else {
        return Ok(HashMap::new());
    };
    let expected_header = format!("{HEADER_PREFIX} {fp:016x}");
    if header != expected_header {
        return Err(bad(format!(
            "sweep journal {} does not match these sweep parameters \
             (header `{header}`, expected `{expected_header}`); \
             use a fresh checkpoint directory per sweep configuration",
            path.display()
        )));
    }
    let mut done = HashMap::new();
    for (k, line) in records.iter().enumerate() {
        match parse_record(line, job_count) {
            Some((index, result)) => {
                done.insert(index, result);
            }
            // Block markers delimit appended blocks; the results live in the
            // `done` records that follow, so the marker itself carries no
            // data — it is validated and skipped. A block whose append was
            // cut short simply ends up with missing records and reruns.
            None if parse_bundle_marker(line, job_count).is_some() => {}
            // Only the final record may be torn; anything else is corruption.
            None if k + 1 == records.len() => {}
            None => {
                return Err(bad(format!(
                    "corrupt sweep journal {}: unparseable record `{line}`",
                    path.display()
                )));
            }
        }
    }
    Ok(done)
}

/// Parses `done <index> <0|1> <f64-bits-hex>`; `None` on any malformation.
fn parse_record(line: &str, job_count: usize) -> Option<(usize, (bool, f64))> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "done" {
        return None;
    }
    let index: usize = fields.next()?.parse().ok()?;
    let converged = match fields.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let bits_field = fields.next()?;
    if bits_field.len() != 16 || fields.next().is_some() || index >= job_count {
        return None;
    }
    let time = f64::from_bits(u64::from_str_radix(bits_field, 16).ok()?);
    Some((index, (converged, time)))
}

/// Parses `block <start> <len>`; `None` on any malformation, including a
/// block range that overruns the job list.
fn parse_bundle_marker(line: &str, job_count: usize) -> Option<()> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "block" {
        return None;
    }
    let start: usize = fields.next()?.parse().ok()?;
    let len: usize = fields.next()?.parse().ok()?;
    if fields.next().is_some() || len == 0 || start.checked_add(len)? > job_count {
        return None;
    }
    Some(())
}

/// Opens the journal for appending, writing the header first when the file
/// is new or empty.
pub(crate) fn open_journal_for_append(path: &Path, fp: u64) -> io::Result<std::fs::File> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if file.metadata()?.len() == 0 {
        writeln!(file, "{HEADER_PREFIX} {fp:016x}")?;
        file.flush()?;
    }
    Ok(file)
}

/// Checkpoint context threaded through a multi-sweep experiment (each sweep
/// gets a labeled subdirectory; the fresh-job budget is shared across them).
#[derive(Debug)]
pub struct ExperimentCheckpoint {
    base: PathBuf,
    snapshot_interval: Option<u64>,
    budget: Option<usize>,
}

impl ExperimentCheckpoint {
    /// Creates a context rooted at `base` with an optional mid-job snapshot
    /// interval and an optional shared fresh-job budget.
    pub fn new(
        base: impl Into<PathBuf>,
        snapshot_interval: Option<u64>,
        budget: Option<usize>,
    ) -> Self {
        Self {
            base: base.into(),
            snapshot_interval,
            budget,
        }
    }

    /// The [`CheckpointConfig`] for the sweep labeled `label`, carrying
    /// whatever fresh-job budget remains.
    pub fn sweep_config(&self, label: &str) -> CheckpointConfig {
        CheckpointConfig {
            dir: self.base.join(label),
            snapshot_interval: self.snapshot_interval,
            job_limit: self.budget,
        }
    }

    /// Deducts `fresh` completed jobs from the shared budget.
    pub fn consume(&mut self, fresh: usize) {
        if let Some(budget) = &mut self.budget {
            *budget = budget.saturating_sub(fresh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_protocols::Fratricide;

    /// A unique scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("ppsweep_test_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn assert_points_bit_identical(a: &[SweepPoint], b: &[SweepPoint]) {
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(b) {
            assert_eq!(pa.n, pb.n);
            assert_eq!(pa.unconverged, pb.unconverged);
            let (va, vb) = (pa.times.values(), pb.times.values());
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "n = {}", pa.n);
            }
        }
    }

    #[test]
    fn uninterrupted_checkpointed_sweep_matches_plain_sweep() {
        // Both sides run every seed the same way, so every draw coincides.
        let scratch = Scratch::new("plain_equiv");
        let ns = [16usize, 32];
        let plain = crate::stabilization_sweep(|_| Fratricide, &ns, 4, 11, u64::MAX);
        let ckpt = CheckpointConfig::new(&scratch.0);
        let status = stabilization_sweep_checkpointed(|_| Fratricide, &ns, 4, 11, u64::MAX, &ckpt)
            .expect("sweep checkpoints");
        let SweepStatus::Complete { points, fresh_jobs } = status else {
            panic!("no job limit: sweep must complete");
        };
        assert_eq!(fresh_jobs, 8);
        assert_points_bit_identical(&plain, &points);
    }

    #[test]
    fn killed_and_resumed_sweep_is_bit_identical_to_clean() {
        let scratch = Scratch::new("kill_resume");
        let ns = [16usize, 24];
        let (seeds, master, width) = (5u64, 77u64, 2);
        let plain = crate::stabilization_sweep(|_| Fratricide, &ns, seeds, master, u64::MAX);

        // Crash after every 3 fresh jobs until the sweep completes. At
        // width 2 each size's 5 seeds block as [2, 2, 1]; the
        // block-granular limit takes blocks until planned fresh jobs reach
        // 3, so the rounds complete [4, 3, 3] fresh jobs.
        let mut shard = CheckpointConfig::new(&scratch.0);
        shard.job_limit = Some(3);
        let mut fresh_per_round = Vec::new();
        let points = loop {
            assert!(fresh_per_round.len() < 20, "sweep failed to make progress");
            match sweep_checkpointed_blocks(
                |_| Fratricide,
                &ns,
                seeds,
                master,
                u64::MAX,
                &shard,
                width,
            )
            .expect("sweep checkpoints")
            {
                SweepStatus::Complete { points, fresh_jobs } => {
                    fresh_per_round.push(fresh_jobs);
                    break points;
                }
                SweepStatus::Suspended { fresh_jobs } => fresh_per_round.push(fresh_jobs),
            }
        };
        assert_eq!(fresh_per_round, vec![4, 3, 3], "10 jobs in width-2 blocks");
        assert_points_bit_identical(&plain, &points);

        // Re-invoking a finished sweep replays the journal: zero fresh jobs,
        // same points.
        match sweep_checkpointed_blocks(|_| Fratricide, &ns, seeds, master, u64::MAX, &shard, width)
            .expect("sweep checkpoints")
        {
            SweepStatus::Complete {
                points: replayed,
                fresh_jobs,
            } => {
                assert_eq!(fresh_jobs, 0);
                assert_points_bit_identical(&points, &replayed);
            }
            SweepStatus::Suspended { .. } => panic!("journal is complete"),
        }
    }

    #[test]
    fn mid_job_snapshots_resume_bit_identically() {
        // Both sides run at the same snapshot interval; the killed side is
        // forced through snapshot restores, the straight side is not.
        let ns = [64usize];
        let (seeds, master) = (2u64, 5u64);
        let straight_dir = Scratch::new("midjob_straight");
        let mut straight = CheckpointConfig::new(&straight_dir.0);
        straight.snapshot_interval = Some(512);
        let SweepStatus::Complete {
            points: expected, ..
        } = stabilization_sweep_checkpointed(
            |_| Fratricide,
            &ns,
            seeds,
            master,
            u64::MAX,
            &straight,
        )
        .expect("sweep checkpoints")
        else {
            panic!("no job limit: sweep must complete");
        };

        let killed_dir = Scratch::new("midjob_killed");
        let mut killed = CheckpointConfig::new(&killed_dir.0);
        killed.snapshot_interval = Some(512);
        killed.job_limit = Some(1);
        let points = loop {
            match stabilization_sweep_checkpointed(
                |_| Fratricide,
                &ns,
                seeds,
                master,
                u64::MAX,
                &killed,
            )
            .expect("sweep checkpoints")
            {
                SweepStatus::Complete { points, .. } => break points,
                SweepStatus::Suspended { .. } => {}
            }
        };
        assert_points_bit_identical(&expected, &points);
    }

    #[test]
    fn journal_rejects_mismatched_sweep_parameters() {
        let scratch = Scratch::new("fingerprint");
        let ckpt = CheckpointConfig::new(&scratch.0);
        stabilization_sweep_checkpointed(|_| Fratricide, &[16], 2, 1, u64::MAX, &ckpt)
            .expect("sweep checkpoints");
        // Same directory, different master seed: must refuse, not mis-merge.
        let err = stabilization_sweep_checkpointed(|_| Fratricide, &[16], 2, 2, u64::MAX, &ckpt)
            .expect_err("fingerprint mismatch must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn journal_rejects_mismatched_execution_modes() {
        // Snapshot-interval results agree with block-mode results in law
        // but not bit-for-bit, and the block width shapes the journal, so a
        // journal written under one execution mode must refuse the others.
        let scratch = Scratch::new("mode_mismatch");
        let ckpt = CheckpointConfig::new(&scratch.0);
        sweep_checkpointed_blocks(|_| Fratricide, &[16], 2, 1, u64::MAX, &ckpt, 2)
            .expect("sweep checkpoints");
        let err = sweep_checkpointed_blocks(|_| Fratricide, &[16], 2, 1, u64::MAX, &ckpt, 3)
            .expect_err("width mismatch must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut scalar = ckpt.clone();
        scalar.snapshot_interval = Some(512);
        let err = sweep_checkpointed_blocks(|_| Fratricide, &[16], 2, 1, u64::MAX, &scalar, 2)
            .expect_err("mode mismatch must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn journal_tolerates_a_torn_final_record() {
        let scratch = Scratch::new("torn_tail");
        let ckpt = CheckpointConfig::new(&scratch.0);
        let mut limited = ckpt.clone();
        limited.job_limit = Some(2);
        sweep_checkpointed_blocks(|_| Fratricide, &[16], 3, 9, u64::MAX, &limited, 1)
            .expect("sweep checkpoints");
        // Simulate a crash mid-append: a record cut off halfway through.
        let journal = scratch.0.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str("done 2 1 3ff");
        std::fs::write(&journal, &text).unwrap();
        let status = sweep_checkpointed_blocks(|_| Fratricide, &[16], 3, 9, u64::MAX, &ckpt, 1)
            .expect("torn tail is tolerated");
        let SweepStatus::Complete { points, fresh_jobs } = status else {
            panic!("sweep must complete");
        };
        // The torn record was discarded, so its job reran.
        assert_eq!(fresh_jobs, 1);
        let plain = crate::stabilization_sweep(|_| Fratricide, &[16], 3, 9, u64::MAX);
        assert_points_bit_identical(&plain, &points);
    }

    #[test]
    fn torn_bundle_block_reruns_the_whole_bundle() {
        // Cut a width-2 block after its first record: the block is
        // incomplete, so both of its jobs rerun — and, being deterministic,
        // land on the same points as the clean sweep.
        let scratch = Scratch::new("torn_bundle");
        let ckpt = CheckpointConfig::new(&scratch.0);
        let mut limited = ckpt.clone();
        limited.job_limit = Some(1);
        sweep_checkpointed_blocks(|_| Fratricide, &[16], 4, 13, u64::MAX, &limited, 2)
            .expect("sweep checkpoints");
        let journal = scratch.0.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&journal).unwrap();
        // header + "block 0 2" + two done lines: drop the final done line.
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "unexpected journal shape:\n{text}");
        lines.pop();
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();
        let status = sweep_checkpointed_blocks(|_| Fratricide, &[16], 4, 13, u64::MAX, &ckpt, 2)
            .expect("incomplete bundles rerun");
        let SweepStatus::Complete { points, fresh_jobs } = status else {
            panic!("sweep must complete");
        };
        assert_eq!(fresh_jobs, 4, "the cut block plus the remaining one");
        let plain = crate::stabilization_sweep(|_| Fratricide, &[16], 4, 13, u64::MAX);
        assert_points_bit_identical(&plain, &points);
    }

    #[test]
    fn corrupt_interior_record_is_an_error() {
        let scratch = Scratch::new("corrupt_interior");
        let mut limited = CheckpointConfig::new(&scratch.0);
        limited.job_limit = Some(2);
        sweep_checkpointed_blocks(|_| Fratricide, &[16], 3, 9, u64::MAX, &limited, 1)
            .expect("sweep checkpoints");
        let journal = scratch.0.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "done garbage");
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();
        let err = sweep_checkpointed_blocks(
            |_| Fratricide,
            &[16],
            3,
            9,
            u64::MAX,
            &CheckpointConfig::new(&scratch.0),
            1,
        )
        .expect_err("interior corruption must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn record_parser_rejects_malformed_lines() {
        assert!(parse_record("done 0 1 3ff0000000000000", 4).is_some());
        for line in [
            "done 0 1 3ff",                   // short bits field
            "done 0 2 3ff0000000000000",      // bad converged flag
            "done 9 1 3ff0000000000000",      // index out of range (job_count 4)
            "done 0 1 3ff0000000000000 tail", // trailing field
            "redo 0 1 3ff0000000000000",      // wrong verb
            "",
        ] {
            assert!(parse_record(line, 4).is_none(), "accepted `{line}`");
        }
    }

    #[test]
    fn bundle_marker_parser_rejects_malformed_lines() {
        assert!(parse_bundle_marker("block 0 2", 4).is_some());
        assert!(parse_bundle_marker("block 2 2", 4).is_some());
        for line in [
            "block 3 2",   // overruns the job list (job_count 4)
            "block 0 0",   // empty block
            "block 0",     // missing length
            "block 0 2 x", // trailing field
            "wide 0 2",    // the retired marker
            "done 0 2",    // wrong verb
            "",
        ] {
            assert!(parse_bundle_marker(line, 4).is_none(), "accepted `{line}`");
        }
    }

    /// Runs a sweep with no job limit; returns its points and fresh jobs.
    fn complete(
        ns: &[usize],
        seeds: u64,
        master: u64,
        ckpt: &CheckpointConfig,
        width: usize,
    ) -> (Vec<SweepPoint>, usize) {
        match sweep_checkpointed_blocks(|_| Fratricide, ns, seeds, master, u64::MAX, ckpt, width)
            .expect("sweep checkpoints")
        {
            SweepStatus::Complete { points, fresh_jobs } => (points, fresh_jobs),
            SweepStatus::Suspended { .. } => panic!("no job limit: sweep must complete"),
        }
    }

    #[test]
    fn snapshot_write_failure_is_an_error_not_a_panic() {
        // A directory squatting on the snapshot's temporary path makes the
        // first mid-job snapshot write fail: the sweep must return the error
        // and journal nothing for the failed job.
        let scratch = Scratch::new("snapshot_failure");
        std::fs::create_dir_all(scratch.0.join("job_0.ckpt.tmp")).unwrap();
        let mut ckpt = CheckpointConfig::new(&scratch.0);
        ckpt.snapshot_interval = Some(512);
        let err = stabilization_sweep_checkpointed(|_| Fratricide, &[64], 1, 5, u64::MAX, &ckpt)
            .expect_err("a failed snapshot write must surface as an error");
        assert_ne!(err.kind(), io::ErrorKind::InvalidData);
        let journal = std::fs::read_to_string(scratch.0.join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal.lines().count(), 1, "header only:\n{journal}");
        // With the obstacle gone the same directory resumes and completes,
        // bit-identical to a clean sweep at the same interval.
        std::fs::remove_dir(scratch.0.join("job_0.ckpt.tmp")).unwrap();
        let (points, _) = complete(&[64], 1, 5, &ckpt, 1);
        let clean_dir = Scratch::new("snapshot_failure_clean");
        let mut clean = CheckpointConfig::new(&clean_dir.0);
        clean.snapshot_interval = Some(512);
        assert_points_bit_identical(&complete(&[64], 1, 5, &clean, 1).0, &points);
    }

    /// Incomplete `ppsweep v3` journals as earlier builds wrote them: a
    /// suspended block-mode sweep (`[16, 24]` × 5 seeds, master 77, width
    /// 2, job limit 3) and a suspended interval-mode sweep (`[64]` × 3
    /// seeds, master 5, interval 512, job limit 2), whose records are bare
    /// `done` lines in completion order.
    const RECORDED_BLOCK_JOURNAL: &str = "ppsweep v3 7d19e488671a99bc
block 0 2
done 0 1 4017000000000000
done 1 1 4023600000000000
block 2 2
done 2 1 403b100000000000
done 3 1 4022800000000000
";
    const RECORDED_INTERVAL_JOURNAL: &str = "ppsweep v3 323887c7c268777a
done 1 1 405c820000000000
done 0 1 4044480000000000
";

    #[test]
    fn recorded_journals_resume_bit_identically() {
        // Pins the journal format and fingerprints: both recorded journals
        // must load under today's fingerprints, keep their records (only
        // the missing jobs run), and resume to the clean sweep's points.
        let block_dir = Scratch::new("recorded_block");
        std::fs::create_dir_all(&block_dir.0).unwrap();
        std::fs::write(block_dir.0.join(JOURNAL_FILE), RECORDED_BLOCK_JOURNAL).unwrap();
        let (resumed, fresh) = complete(&[16, 24], 5, 77, &CheckpointConfig::new(&block_dir.0), 2);
        assert_eq!(fresh, 6, "4 of 10 jobs were journaled");
        let clean = crate::stabilization_sweep(|_| Fratricide, &[16, 24], 5, 77, u64::MAX);
        assert_points_bit_identical(&clean, &resumed);

        let interval_dir = Scratch::new("recorded_interval");
        std::fs::create_dir_all(&interval_dir.0).unwrap();
        std::fs::write(interval_dir.0.join(JOURNAL_FILE), RECORDED_INTERVAL_JOURNAL).unwrap();
        let mut ckpt = CheckpointConfig::new(&interval_dir.0);
        ckpt.snapshot_interval = Some(512);
        let (resumed, fresh) = complete(&[64], 3, 5, &ckpt, 1);
        assert_eq!(fresh, 1, "2 of 3 jobs were journaled");
        let clean_dir = Scratch::new("recorded_interval_clean");
        let mut clean = CheckpointConfig::new(&clean_dir.0);
        clean.snapshot_interval = Some(512);
        assert_points_bit_identical(&complete(&[64], 3, 5, &clean, 1).0, &resumed);
    }
}
