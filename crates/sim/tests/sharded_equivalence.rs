//! Shard-merge bit-identity suite: the sweep fabric's merge contract,
//! enforced end-to-end through the public API.
//!
//! Sequential, 1-shard, and 4-concurrent-shard runs of the same spec must
//! produce byte-for-byte equal canonical journals, table CSVs, and
//! `Summary` observations; a killed (suspended) worker must resume from
//! its journal to the identical merged result; and shard directories of a
//! different sweep must be refused, not merged.

use pp_protocols::Fratricide;
use pp_sim::fabric::{merge_shards, points_table, run_sequential, run_worker_shard, FabricSpec};
use pp_sim::SweepPoint;
use std::path::PathBuf;

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ppfabric_it_{}_{name}", std::process::id()));
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
        // Mixed sizes out of order, so largest-n-first scheduling visibly
        // reorders execution — and must not reorder a byte of output.
        ns: vec![16, 48, 32],
        seeds: 6,
        master_seed: 1234,
        max_steps: u64::MAX,
        lanes: 2,
    }
}

fn assert_points_bit_identical(a: &[SweepPoint], b: &[SweepPoint]) {
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(b) {
        assert_eq!(pa.n, pb.n);
        assert_eq!(pa.unconverged, pb.unconverged);
        assert_eq!(
            pa.times.checksum(),
            pb.times.checksum(),
            "summaries diverge at n = {}",
            pa.n
        );
        let (va, vb) = (pa.times.values(), pb.times.values());
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits(), "n = {}", pa.n);
        }
    }
}

#[test]
fn sequential_one_shard_and_four_shards_are_byte_identical() {
    let spec = spec();

    let seq = Scratch::new("eq_seq");
    let seq_points = run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");

    let one = Scratch::new("eq_one");
    let outcome = run_worker_shard(|_| Fratricide, &spec, &one.0, 0, None).expect("worker runs");
    assert!(!outcome.suspended);
    let one_points = merge_shards(&spec, &one.0, 1)
        .expect("1-shard merge")
        .points
        .expect("complete");

    // Four workers racing over the shared claim directory, each with its
    // own journal — whichever interleaving the scheduler picks, the merge
    // must land on the same bytes.
    let four = Scratch::new("eq_four");
    std::fs::create_dir_all(&four.0).unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|shard| {
                let spec = &spec;
                let dir = &four.0;
                scope.spawn(move || {
                    run_worker_shard(|_| Fratricide, spec, dir, shard, None)
                        .expect("shard worker runs")
                })
            })
            .collect();
        let fresh: usize = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread").fresh_jobs)
            .sum();
        // Claims partition the work: the union is exactly the grid.
        assert_eq!(fresh, spec.total_jobs());
    });
    let four_points = merge_shards(&spec, &four.0, 4)
        .expect("4-shard merge")
        .points
        .expect("complete");

    assert_points_bit_identical(&seq_points, &one_points);
    assert_points_bit_identical(&seq_points, &four_points);

    // Canonical journals: byte-for-byte equal across all three runs.
    let seq_journal = std::fs::read(seq.0.join("journal.txt")).unwrap();
    assert_eq!(
        seq_journal,
        std::fs::read(one.0.join("journal.txt")).unwrap()
    );
    assert_eq!(
        seq_journal,
        std::fs::read(four.0.join("journal.txt")).unwrap()
    );

    // Table CSVs (including the Summary checksum column): equal bytes.
    let csv = points_table(&seq_points).to_csv();
    assert_eq!(csv, points_table(&one_points).to_csv());
    assert_eq!(csv, points_table(&four_points).to_csv());
}

#[test]
fn killed_worker_resumes_from_its_journal_to_the_identical_merge() {
    let spec = spec();
    let seq = Scratch::new("kill_seq");
    let seq_points = run_sequential(|_| Fratricide, &spec, &seq.0).expect("sequential runs");

    // Shard 0 "dies" (suspends) after a few jobs; shard 1 then works the
    // remainder; a final shard-0 invocation finds nothing left to do.
    let dir = Scratch::new("kill_shards");
    let killed =
        run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, Some(4)).expect("limited worker");
    assert!(killed.suspended);
    assert!(killed.fresh_jobs < spec.total_jobs());
    let second = run_worker_shard(|_| Fratricide, &spec, &dir.0, 1, None).expect("second worker");
    assert_eq!(killed.fresh_jobs + second.fresh_jobs, spec.total_jobs());
    let resumed = run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("resume");
    assert!(!resumed.suspended);
    assert_eq!(resumed.fresh_jobs, 0, "everything was claimed or journaled");

    let merged = merge_shards(&spec, &dir.0, 2)
        .expect("merge")
        .points
        .expect("complete");
    assert_points_bit_identical(&seq_points, &merged);
    assert_eq!(
        std::fs::read(seq.0.join("journal.txt")).unwrap(),
        std::fs::read(dir.0.join("journal.txt")).unwrap()
    );
}

#[test]
fn mixed_fingerprint_shard_dirs_are_refused() {
    let spec = spec();
    let dir = Scratch::new("mixed");
    run_worker_shard(|_| Fratricide, &spec, &dir.0, 0, None).expect("shard 0 runs");

    // Shard 1 belongs to a different sweep — another master seed, so every
    // draw differs. Its journal header cannot match, and the merge must
    // refuse rather than blend non-comparable results.
    let mut foreign = spec.clone();
    foreign.master_seed += 1;
    run_worker_shard(|_| Fratricide, &foreign, &dir.0, 1, None).expect("foreign shard runs");

    let err = merge_shards(&spec, &dir.0, 2).expect_err("mixed fingerprints refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
