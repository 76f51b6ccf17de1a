//! The sweep journal and its seed driver: what makes a `ppsweep` worker
//! shard ([`run_worker_shard`]) crash-recoverable.
//!
//! A worker records progress in a *journal* — a line-oriented text file
//! listing every completed job with its exact result. Killing the process
//! at any point loses at most the seeds in flight; rerunning the worker on
//! the same directory picks up where it left off.
//!
//! # Journal format (`ppsweep v3`)
//!
//! The header line fingerprints the sweep parameters and the claim width.
//! Every record after it is `done <job> <0|1> <f64-bits-hex>`: one
//! completed job (one seed). Journals written before seeds became the unit
//! of work also hold `block <start> <len>` markers; the loader validates
//! and skips them, so those journals still resume and merge.
//!
//! Only whole lines count. Bytes after the last newline are an append cut
//! short by a crash: [`load_journal`] ignores them and
//! [`open_journal_for_append`] cuts them before the next record lands.
//!
//! # The seed driver
//!
//! [`drive_seeds`] runs the seeds a worker selected as [`parallel_map`]
//! items, largest `n` first, and appends each finished seed's record in
//! one write, so a crash tears at most the final record. A missing record
//! reruns on resume; runs are deterministic, so a rerun seed rewrites an
//! identical record.
//!
//! # Determinism contract
//!
//! Every seed runs exactly as [`stabilization_sweep`] runs it, and results
//! are journaled as exact `f64` bit patterns and re-aggregated in job-index
//! order, so a killed-then-resumed sweep aggregates into [`SweepPoint`]s
//! **bit-identical** to an uninterrupted one: every mean, variance and
//! quantile string downstream comes out byte-for-byte equal. The claim
//! width shapes the fabric's claims (never the results), so it is part of
//! the fingerprint: resuming under another width is an `InvalidData`
//! error, not a silently mixed claim directory.
//!
//! [`stabilization_sweep`]: crate::stabilization_sweep
//! [`SweepPoint`]: crate::SweepPoint
//! [`parallel_map`]: crate::parallel_map
//! [`run_worker_shard`]: crate::fabric::run_worker_shard

use crate::runner::{cost_order, fan_out, SweepRollup};
use std::collections::HashMap;
use std::io::{self, Read as _, Write};
use std::path::Path;
use std::sync::Mutex;

/// Journal file name inside a shard or run directory.
pub(crate) const JOURNAL_FILE: &str = "journal.txt";

/// Journal header prefix; the version is part of the format. `v2` added
/// block markers and the execution mode in the fingerprint; `v3` renamed
/// the marker to `block` and dropped the round law from the fingerprint.
const HEADER_PREFIX: &str = "ppsweep v3";

/// The seed driver (see the [module docs](self)): runs the jobs `pending`
/// (indices into the sweep's `(n, seed)` list `jobs`) largest-`n`-first,
/// appends each finished job's record to `journal` and adds its result to
/// `done`. `run` returns a job's result, or `None` to decline it (the
/// fabric's claim gate). Returns the rollup of its fan-out, whose `jobs`
/// are the seeds it ran, or `None` when nothing was pending.
///
/// # Errors
///
/// The first error of `run` or of the journal. A failed append closes the
/// journal: no seed starts or appends after it, so a torn write stays the
/// final record.
pub(crate) fn drive_seeds<R>(
    jobs: &[(usize, u64)],
    pending: &[usize],
    journal: std::fs::File,
    done: &mut HashMap<usize, (bool, f64)>,
    run: R,
) -> io::Result<Option<SweepRollup>>
where
    R: Fn(usize) -> io::Result<Option<(bool, f64)>> + Sync,
{
    if pending.is_empty() {
        return Ok(None);
    }
    // Results are journaled and aggregated by job index, so the order
    // changes makespan only, never a byte of output.
    let order: Vec<usize> = cost_order(pending, |&i| jobs[i].0)
        .into_iter()
        .map(|k| pending[k])
        .collect();
    let journal = Mutex::new(Some(journal));
    let lock = || journal.lock().expect("journal writers do not panic");
    let run_job = |&i: &usize| -> io::Result<Option<(bool, f64)>> {
        if lock().is_none() {
            return Ok(None);
        }
        let Some(result) = run(i)? else {
            return Ok(None);
        };
        let mut slot = lock();
        let Some(file) = slot.as_mut() else {
            return Ok(None);
        };
        if let Err(e) = file.write_all(record(i, result).as_bytes()) {
            *slot = None;
            return Err(e);
        }
        Ok(Some(result))
    };
    let ran = |outcome: &io::Result<Option<_>>| u64::from(matches!(outcome, Ok(Some(_))));
    let (outcomes, rollup) = fan_out(&order, run_job, ran);
    for (i, outcome) in order.into_iter().zip(outcomes) {
        if let Some(result) = outcome? {
            done.insert(i, result);
        }
    }
    Ok(Some(rollup))
}

/// The `done` record line of job `job`: the one writer of record text,
/// for the driver's appends and the canonical journal alike.
fn record(job: usize, (converged, time): (bool, f64)) -> String {
    format!(
        "done {job} {} {:016x}\n",
        u8::from(converged),
        time.to_bits()
    )
}

/// Writes the *canonical journal* of a fully-known job list to `path`: the
/// header, then one `done` record per job in job order. A pure function
/// of the results — which process ran which seed, in what order, across
/// how many crashes, leaves no trace — so every complete run of the same
/// spec writes the same bytes.
pub(crate) fn write_canonical_journal(
    path: &Path,
    fp: u64,
    flat: &[(bool, f64)],
) -> io::Result<()> {
    let mut text = format!("{HEADER_PREFIX} {fp:016x}\n");
    for (i, &result) in flat.iter().enumerate() {
        text.push_str(&record(i, result));
    }
    write_atomically(path, text.as_bytes())
}

/// Writes via a temporary file + rename so readers never observe a torn
/// file (the fabric's metrics documents, claim bodies and canonical
/// journal).
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The engine's RNG-stream revision, hashed into every journal
/// [`fingerprint`]. A sweep's results are functions of the stream, so a
/// journal written under another revision would mix two streams in one
/// table: bump this whenever a change moves any trajectory a sweep runs.
/// Revision 1 is the agent-array pair draw of the per-step tiers; journals
/// written before it hash no revision and are refused.
const STREAM_REVISION: u64 = 1;

/// FNV-1a 64 over the sweep parameters, the claim width and the
/// [`STREAM_REVISION`]: the journal's compatibility check. The width shapes
/// the fabric's claims, so it must match. The `1` hashed before it tags
/// block mode, which every journal since `v2` hashes.
pub(crate) fn fingerprint(
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
    width: usize,
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
    eat(1);
    eat(width as u64);
    eat(STREAM_REVISION);
    h
}

/// Parses the journal at `path` (missing file → empty). Checks the header
/// fingerprint and ignores the bytes after the last newline (an append cut
/// short by a crash); every whole line must parse.
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
    // No whole line yet: at most a torn header.
    let Some(end) = text.rfind('\n') else {
        return Ok(HashMap::new());
    };
    let mut lines = text[..=end].lines();
    let header = lines.next().unwrap_or_default();
    let expected_header = format!("{HEADER_PREFIX} {fp:016x}");
    if header != expected_header {
        return Err(bad(format!(
            "sweep journal {} does not match these sweep parameters \
             (header `{header}`, expected `{expected_header}`); \
             use a fresh run directory per sweep configuration",
            path.display()
        )));
    }
    let mut done = HashMap::new();
    for line in lines {
        match parse_record(line, job_count) {
            Some((index, result)) => {
                done.insert(index, result);
            }
            // Legacy block markers carry no data (the results live in the
            // `done` records): validated and skipped. A block whose append
            // was cut short just lacks records, whose seeds rerun.
            None if parse_bundle_marker(line, job_count).is_some() => {}
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

/// Parses a legacy `block <start> <len>` marker; `None` on any
/// malformation, including a block range that overruns the job list.
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

/// Opens the journal for appending. Cuts the bytes after the last newline
/// first (the torn append [`load_journal`] ignored), so the next record
/// starts on a line of its own, and writes the header when nothing whole
/// is left.
pub(crate) fn open_journal_for_append(path: &Path, fp: u64) -> io::Result<std::fs::File> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    if whole < bytes.len() {
        file.set_len(whole as u64)?;
    }
    if whole == 0 {
        writeln!(file, "{HEADER_PREFIX} {fp:016x}")?;
        file.flush()?;
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    //! The journal's robustness, driven through the fabric's worker path:
    //! every resumed run must merge to exactly the sequential run's
    //! canonical journal and table.

    use super::*;
    use crate::fabric::{
        merge_shards, points_table, run_sequential, run_worker_shard, shard_dir, FabricSpec,
        ShardOutcome,
    };
    use pp_protocols::Fratricide;
    use std::path::PathBuf;

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

    fn spec(ns: &[usize], seeds: u64, master_seed: u64, lanes: usize) -> FabricSpec {
        FabricSpec {
            protocol: "fratricide".into(),
            ns: ns.to_vec(),
            seeds,
            master_seed,
            max_steps: u64::MAX,
            lanes,
        }
    }

    fn work(spec: &FabricSpec, dir: &Scratch, limit: Option<usize>) -> io::Result<ShardOutcome> {
        run_worker_shard(|_| Fratricide, spec, &dir.0, 0, limit)
    }

    fn journal(dir: &Scratch) -> PathBuf {
        shard_dir(&dir.0, 0).join(JOURNAL_FILE)
    }

    /// Rewrites shard 0's journal through `edit` on its lines.
    fn edit_journal(dir: &Scratch, edit: impl FnOnce(&mut Vec<&str>)) {
        let text = std::fs::read_to_string(journal(dir)).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        edit(&mut lines);
        std::fs::write(journal(dir), lines.join("\n") + "\n").unwrap();
    }

    /// Merges shard 0 under `dir` and requires the sequential run's exact
    /// table (checksums included) and canonical journal bytes.
    fn assert_merges_to_sequential(spec: &FabricSpec, dir: &Scratch) {
        let merged = merge_shards(spec, &dir.0, 1).expect("merge reads the shard");
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

    fn assert_invalid_data<T: std::fmt::Debug>(result: io::Result<T>) {
        let err = result.expect_err("the journal must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn uninterrupted_checkpointed_sweep_matches_plain_sweep() {
        // A journaled worker runs every seed as `stabilization_sweep` does,
        // so its merged points equal the plain sweep's bit for bit.
        let spec = spec(&[16, 32], 4, 11, 2);
        let dir = Scratch::new("plain_equiv");
        assert_eq!(work(&spec, &dir, None).expect("worker runs").fresh_jobs, 8);
        let merged = merge_shards(&spec, &dir.0, 1).expect("merge reads the shard");
        let plain = crate::stabilization_sweep(|_| Fratricide, &spec.ns, 4, 11, u64::MAX);
        assert_eq!(
            points_table(&plain).to_csv(),
            points_table(&merged.points.expect("every job is journaled")).to_csv()
        );
    }

    #[test]
    fn claim_write_failure_is_an_error_not_a_panic() {
        // A directory squatting on the temporary path of the worker's
        // claim body makes its first write fail: the worker must return
        // the error and journal nothing.
        let spec = spec(&[16], 3, 5, 2);
        let dir = Scratch::new("claim_write_failure");
        let squat = shard_dir(&dir.0, 0).join("claim.ckpt.tmp");
        std::fs::create_dir_all(&squat).unwrap();
        let err = work(&spec, &dir, None).expect_err("a failed write must surface as an error");
        assert_ne!(err.kind(), io::ErrorKind::InvalidData);
        let text = std::fs::read_to_string(journal(&dir)).unwrap();
        assert_eq!(text.lines().count(), 1, "header only:\n{text}");
        // With the obstacle gone the same directory resumes and completes.
        std::fs::remove_dir(&squat).unwrap();
        assert_eq!(work(&spec, &dir, None).expect("worker runs").fresh_jobs, 3);
        assert_merges_to_sequential(&spec, &dir);
    }

    #[test]
    fn killed_and_resumed_sweep_is_bit_identical_to_clean() {
        // Suspend after every 3 fresh jobs until the sweep completes. At
        // width 2 each size's 5 seeds block as [2, 2, 1]; the
        // block-granular limit takes blocks until planned fresh jobs reach
        // 3, so the rounds complete [4, 3, 3] fresh jobs.
        let spec = spec(&[16, 24], 5, 77, 2);
        let dir = Scratch::new("kill_resume");
        let mut fresh_per_round = Vec::new();
        loop {
            assert!(fresh_per_round.len() < 20, "sweep failed to make progress");
            let outcome = work(&spec, &dir, Some(3)).expect("worker runs");
            fresh_per_round.push(outcome.fresh_jobs);
            if !outcome.suspended {
                break;
            }
        }
        assert_eq!(fresh_per_round, vec![4, 3, 3], "10 jobs in width-2 blocks");
        assert_merges_to_sequential(&spec, &dir);
        // Rerunning a finished shard replays its journal: no fresh jobs.
        let idle = work(&spec, &dir, None).expect("worker runs");
        assert_eq!((idle.fresh_jobs, idle.suspended), (0, false));
    }

    #[test]
    fn journal_rejects_mismatched_sweep_parameters() {
        let dir = Scratch::new("fingerprint");
        work(&spec(&[16], 2, 1, 2), &dir, None).expect("worker runs");
        // Same directory, different master seed: must refuse, not mis-merge.
        let foreign = spec(&[16], 2, 2, 2);
        assert_invalid_data(work(&foreign, &dir, None));
        assert_invalid_data(merge_shards(&foreign, &dir.0, 1));
    }

    #[test]
    fn journal_rejects_mismatched_execution_modes() {
        // The block width is the one execution-mode parameter left: it
        // shapes the claims, so a journal written at one width must refuse
        // another.
        let dir = Scratch::new("width_mismatch");
        work(&spec(&[16], 2, 1, 2), &dir, None).expect("worker runs");
        assert_invalid_data(work(&spec(&[16], 2, 1, 3), &dir, None));
    }

    #[test]
    fn journal_tolerates_a_torn_final_record() {
        let spec = spec(&[16], 3, 9, 1);
        let dir = Scratch::new("torn_tail");
        assert!(work(&spec, &dir, Some(2)).expect("worker runs").suspended);
        // A crash mid-append: block 2 claimed by shard 0, its record cut
        // halfway.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(journal(&dir))
            .unwrap();
        file.write_all(b"block 2 1\ndone 2 1 3ff").unwrap();
        std::fs::write(dir.0.join("claims/2.claim"), "0 1\n").unwrap();
        // Rerunning shard 0 takes its claim back; the torn record is
        // discarded, so its job reruns — and the rerun's append must not
        // fuse with the torn bytes, or the merge would reread a corrupt
        // journal.
        assert_eq!(
            work(&spec, &dir, None)
                .expect("torn tail is tolerated")
                .fresh_jobs,
            1
        );
        assert_merges_to_sequential(&spec, &dir);
    }

    #[test]
    fn corrupt_interior_record_is_an_error() {
        let spec = spec(&[16], 3, 9, 1);
        let dir = Scratch::new("corrupt_interior");
        work(&spec, &dir, Some(2)).expect("worker runs");
        edit_journal(&dir, |lines| lines.insert(1, "done garbage"));
        assert_invalid_data(work(&spec, &dir, None));
        assert_invalid_data(merge_shards(&spec, &dir.0, 1));
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

    /// An incomplete shard journal as the worker writes it at stream
    /// revision 1:
    /// `ppsweep --protocol fratricide --ns 16,24 --seeds 10 --master 77
    /// --worker 0 --job-limit 9` with blocks of 8 seeds, which journals the
    /// two blocks of `n = 16` and suspends.
    const RECORDED_SHARD_JOURNAL: &str = "ppsweep v3 7b1e29f499e39977
block 0 8
done 0 1 4019c00000000000
done 1 1 4023600000000000
done 2 1 4035400000000000
done 3 1 4022800000000000
done 4 1 4030400000000000
done 5 1 4023e00000000000
done 6 1 401bc00000000000
done 7 1 4032400000000000
block 8 2
done 8 1 402e600000000000
done 9 1 402d600000000000
";

    /// The same command's journal from before [`STREAM_REVISION`] 1: its
    /// results come from the previous pair draw, so it must be refused.
    const PRE_REVISION_SHARD_JOURNAL: &str = "ppsweep v3 6898447daaf563e6
block 0 8
done 0 1 4017000000000000
done 1 1 4023600000000000
done 2 1 403b100000000000
done 3 1 4022800000000000
done 4 1 402a400000000000
done 5 1 4034b00000000000
done 6 1 400b800000000000
done 7 1 4034900000000000
block 8 2
done 8 1 402e600000000000
done 9 1 400d800000000000
";

    #[test]
    fn recorded_journals_resume_bit_identically() {
        // Pins the journal format and `FabricSpec::fingerprint`: the
        // recorded journal must load under today's fingerprint, keep its
        // records (only the missing jobs run), and merge to the sequential
        // run's bytes.
        let spec = spec(&[16, 24], 10, 77, 8);
        let dir = Scratch::new("recorded_shard");
        std::fs::create_dir_all(shard_dir(&dir.0, 0)).unwrap();
        std::fs::write(journal(&dir), RECORDED_SHARD_JOURNAL).unwrap();
        let outcome = work(&spec, &dir, None).expect("recorded journal resumes");
        assert_eq!(outcome.fresh_jobs, 10, "10 of 20 jobs were journaled");
        assert_merges_to_sequential(&spec, &dir);
        // A journal of another stream revision is refused, not mixed in.
        let stale = Scratch::new("pre_revision_shard");
        std::fs::create_dir_all(shard_dir(&stale.0, 0)).unwrap();
        std::fs::write(journal(&stale), PRE_REVISION_SHARD_JOURNAL).unwrap();
        assert_invalid_data(work(&spec, &stale, None));
        assert_invalid_data(merge_shards(&spec, &stale.0, 1));
    }
}
