//! Parallel execution of embarrassingly parallel experiment jobs.
//!
//! [`parallel_map`] fans jobs out across worker **threads**; it is the one
//! thread pool every sweep rides. Every sweep — [`stabilization_sweep`],
//! the fabric's sequential mode and its durable worker shards — hands the
//! workers one seed per item, largest-`n`-first, and runs every seed on its
//! own scalar [`CountSimulation`]. A seed's result is a pure function of
//! `(protocol, n, master seed, seed index, max_steps)`, so neither the
//! fabric's claim width nor the thread count (`PP_SIM_THREADS`, the one env
//! override, for reproducible benchmarking) changes a bit of the output.

use pp_engine::{CountSimulation, LeaderElection};
use pp_rand::{SeedSequence, Xoshiro256PlusPlus};
use pp_stats::Summary;
use std::io::{self, IsTerminal, Write as _};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on the `PP_SIM_THREADS` override (clamped rather than
/// erroring).
const MAX_WORKERS: usize = 1024;

/// Seeds per claimed sweep block: large enough that claim files stay rare
/// next to the runs they gate.
const BLOCK_SEEDS: usize = 8;

/// `PP_SIM_THREADS` resolution: a parseable override is clamped to
/// `1..=MAX_WORKERS` (out-of-range values clamp, they don't error);
/// anything else falls back
/// to the detected parallelism.
fn worker_override(raw: Option<&str>, detected: usize) -> usize {
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(v) => v.clamp(1, MAX_WORKERS),
        None => detected.clamp(1, MAX_WORKERS),
    }
}

/// Worker threads for `jobs` jobs: the `PP_SIM_THREADS` override if set,
/// else [`std::thread::available_parallelism`], never more than the jobs.
pub(crate) fn worker_count(jobs: usize) -> usize {
    let detected = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = std::env::var("PP_SIM_THREADS");
    worker_override(threads.as_deref().ok(), detected).min(jobs.max(1))
}

/// Seeds per claimed block, fixed at 8: the width `ppsweep` gives every
/// [`FabricSpec`](crate::fabric::FabricSpec), which shapes a worker's
/// claims. Results and journals never depend on it.
pub fn sweep_lane_width() -> usize {
    BLOCK_SEEDS
}

/// Whether [`parallel_map`] should report live progress: stderr is a
/// terminal and `PP_SIM_PROGRESS` is not `0`.
fn progress_enabled(jobs: usize) -> bool {
    jobs > 1
        && std::io::stderr().is_terminal()
        && std::env::var("PP_SIM_PROGRESS").map_or(true, |v| v != "0")
}

/// Throughput and progress aggregate of one [`parallel_map`] fan-out,
/// recorded when rollup collection is enabled (see
/// [`enable_sweep_rollup`]). One rollup per fan-out — a sweep's experiment
/// typically accumulates several.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRollup {
    /// Jobs the fan-out ran: one per item, which for a sweep is one per
    /// seed. A fabric worker counts the seeds it ran, not the seeds it
    /// declined because another shard held their block.
    pub jobs: u64,
    /// Worker threads it ran on.
    pub workers: u64,
    /// Wall-clock duration of the whole fan-out.
    pub wall_seconds: f64,
    /// `jobs / wall_seconds` (0 when the fan-out was instantaneous).
    pub jobs_per_second: f64,
    /// OS process that ran the fan-out. With the multi-process sweep fabric
    /// a grid's fan-outs span several worker processes; the pid is what lets
    /// a metrics consumer group per-process rows before summing throughput
    /// across them.
    pub pid: u32,
    /// The sweep-fabric shard whose worker ran the fan-out, `None` outside
    /// a worker.
    pub shard: Option<u64>,
}

impl SweepRollup {
    /// Serializes the rollup as one JSON object (hand-rolled; the
    /// workspace takes no serde dependency). `shard` is `null` outside
    /// fabric worker mode.
    pub fn to_json(&self) -> String {
        let shard = self.shard.map_or("null".to_string(), |s| s.to_string());
        format!(
            "{{\"jobs\":{},\"workers\":{},\"wall_seconds\":{},\"jobs_per_second\":{},\
             \"pid\":{},\"shard\":{shard}}}",
            self.jobs, self.workers, self.wall_seconds, self.jobs_per_second, self.pid
        )
    }
}

static ROLLUPS: OnceLock<Mutex<Vec<SweepRollup>>> = OnceLock::new();
static ROLLUP_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns on process-wide rollup collection: every subsequent
/// [`parallel_map`] records a [`SweepRollup`] retrievable with
/// [`take_sweep_rollups`]. Collection is off by default — the recorder
/// costs one relaxed atomic load per fan-out when disabled.
pub fn enable_sweep_rollup() {
    ROLLUP_ENABLED.store(true, Ordering::Release);
}

/// Drains and returns every rollup recorded since the last call (empty
/// when collection was never enabled).
pub fn take_sweep_rollups() -> Vec<SweepRollup> {
    ROLLUPS
        .get()
        .map(|m| std::mem::take(&mut *m.lock().expect("rollup lock poisoned")))
        .unwrap_or_default()
}

/// Progress-line ETA suffix, based on the **completed-job** rate.
///
/// Sweep job laws are heavy-tailed (stabilization time is a random variable
/// with a long upper tail), so a linear extrapolation can mislead in a
/// specific way: late in a fan-out most remaining "work" is a handful of
/// claimed-but-unfinished stragglers whose cost the completed-job average
/// does not represent. The estimate itself stays the completed-rate
/// extrapolation — anything cleverer would be guessing — but when the
/// claimed-but-unfinished jobs make up at least half of what remains, the
/// line shows a visible `≥` qualifier: the stragglers already in flight put
/// a floor, not a ceiling, on the time left. Empty until the first job
/// completes (there is no completed rate to extrapolate from).
fn eta_suffix(done: usize, claimed: usize, total: usize, elapsed_secs: f64) -> String {
    if done == 0 || done >= total {
        return String::new();
    }
    let rate = done as f64 / elapsed_secs.max(1e-9);
    let remaining = total - done;
    let in_flight = claimed.saturating_sub(done).min(remaining);
    let qualifier = if 2 * in_flight >= remaining {
        "\u{2265} "
    } else {
        ""
    };
    format!(", eta {qualifier}{:.0}s", remaining as f64 / rate.max(1e-9))
}

/// Sets the flag on drop, so the progress monitor stops even when a worker
/// panic unwinds the scope.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Applies `f` to every job on all available cores, preserving job order.
///
/// Results are deterministic: ordering does not depend on thread scheduling,
/// only on the job list (each job carries its own seed).
///
/// Workers claim job indices from a shared atomic counter and buffer
/// `(index, result)` pairs locally; the buffers are collected through each
/// worker's join handle and scattered into place — no locks anywhere, and no
/// synchronization on the results beyond the joins themselves.
///
/// The worker count is [`std::thread::available_parallelism`], overridable
/// through `PP_SIM_THREADS` (clamped to `1..=1024`) so bench and CI runs can
/// pin it for reproducible throughput numbers. When stderr is a terminal a
/// monitor thread repaints a `claimed/done` progress line a few times a
/// second (suppressed with `PP_SIM_PROGRESS=0`, and entirely absent when
/// output is piped — progress never lands in redirected logs).
///
/// # Panics
///
/// If `f` panics on any job, the panic propagates out of `parallel_map` (the
/// worker's join handle surfaces it; `std::thread::scope` re-raises panics of
/// scoped threads). Jobs already claimed by other workers still run to
/// completion first; their results are discarded.
///
/// # Example
///
/// ```
/// use pp_sim::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(jobs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fan_out(jobs, f, |_| 1).0
}

/// [`parallel_map`], also returning the fan-out's rollup (recorded as
/// `parallel_map` records it). Its `jobs` sums `weight` over the results,
/// so a fabric worker's declined seeds count none.
pub(crate) fn fan_out<T, R, F, W>(jobs: &[T], f: F, weight: W) -> (Vec<R>, SweepRollup)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    W: Fn(&R) -> u64,
{
    let workers = worker_count(jobs.len());
    let total = jobs.len();
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut results: Vec<Option<R>> = Vec::with_capacity(total);
    results.resize_with(total, || None);
    std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(&stop);
        if progress_enabled(total) {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let claimed = next.load(Ordering::Relaxed).min(total);
                    let done = finished.load(Ordering::Relaxed);
                    let eta = eta_suffix(done, claimed, total, started.elapsed().as_secs_f64());
                    eprint!("\r  sweep: {done}/{total} jobs done, {claimed} claimed{eta}");
                    let _ = std::io::stderr().flush();
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                // Clear the line so the next stderr write starts clean.
                eprint!("\r{:64}\r", "");
                let _ = std::io::stderr().flush();
            });
        }
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        local.push((i, f(&jobs[i])));
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("a sweep worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    let results: Vec<R> = results
        .into_iter()
        .map(|r| r.expect("every job index was claimed exactly once"))
        .collect();
    let ran: u64 = results.iter().map(weight).sum();
    let wall = started.elapsed().as_secs_f64();
    let rollup = SweepRollup {
        jobs: ran,
        workers: workers as u64,
        wall_seconds: wall,
        jobs_per_second: if wall > 0.0 { ran as f64 / wall } else { 0.0 },
        pid: std::process::id(),
        shard: None,
    };
    if ROLLUP_ENABLED.load(Ordering::Acquire) {
        ROLLUPS
            .get_or_init(|| Mutex::new(Vec::new()))
            .lock()
            .expect("rollup lock poisoned")
            .push(rollup);
    }
    (results, rollup)
}

/// One measured point of a stabilization-time sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Population size.
    pub n: usize,
    /// Parallel stabilization times across seeds.
    pub times: Summary,
    /// Number of runs that failed to converge within the step budget
    /// (should be zero for every protocol in this workspace).
    pub unconverged: u64,
}

/// Measures mean parallel stabilization time of a leader-election protocol
/// across population sizes, `seeds` runs per size, in parallel.
///
/// `make` builds the protocol for a given `n`; each run gets a distinct
/// deterministic seed derived from `master_seed`. Seeds are derived from the
/// packed job index `(size_index << 32) | seed_index`, so `seeds` must stay
/// below `2^32` — far beyond any realistic sweep; asserted at entry rather
/// than silently reusing seed streams across sizes.
///
/// Each seed is one [`parallel_map`] item, handed out largest-`n`-first,
/// and runs on its own [`CountSimulation`], whose tiers pick the cheapest
/// exact execution per phase (the jump scheduler telescopes null-dominated
/// tails: a fratricide
/// sweep point at `n = 2^28` telescopes `~10^16` null interactions and
/// completes in seconds). Every run is an exact simulation of the
/// uniformly random scheduler, so the measured distribution is the same
/// law as the per-agent engine's at a vanishing fraction of the cost, and
/// every result is deterministic for a fixed `master_seed` — independent
/// of the thread count.
///
/// Repeated entries in `ns` are measured independently (each job range
/// aggregates into its own [`SweepPoint`]).
pub fn stabilization_sweep<P, F>(
    make: F,
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
) -> Vec<SweepPoint>
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let (flat, _) = sweep_flat(&make, ns, seeds, master_seed, max_steps);
    aggregate_points(ns, seeds, &flat)
}

/// Cost-model ordering of a fan-out: indices into `items`, whose
/// population sizes `n` reads, most-expensive-first (stable, so same-`n`
/// items keep job order).
///
/// Per-item cost is monotone in `n` for every protocol in this workspace
/// (steps scale as `n · time`), so largest-`n`-first **is** the fitted-cost
/// order. A FIFO fan-out can hand a worker a largest-`n` job *last*,
/// leaving every other worker idle behind it; scheduling the expensive work
/// first bounds that idle tail by the cheapest job's cost (classic LPT
/// scheduling). Callers scatter results back into job order.
pub(crate) fn cost_order<T>(items: &[T], n: impl Fn(&T) -> usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(n(&items[i])));
    order
}

/// Job-ordered flat `(converged, parallel_time)` outcomes of a sweep, and
/// its fan-out's rollup: the in-memory sweep of [`stabilization_sweep`] and
/// the sweep fabric's sequential mode. Every seed is one [`fan_out`] item,
/// largest-`n`-first ([`cost_order`]), and its result is scattered back to
/// its job index, so the returned order — and every bit of every result —
/// is independent of the scheduling.
pub(crate) fn sweep_flat<P, F>(
    make: &F,
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    max_steps: u64,
) -> (Vec<(bool, f64)>, SweepRollup)
where
    P: LeaderElection,
    F: Fn(usize) -> P + Sync,
{
    let jobs = sweep_jobs(ns, seeds, master_seed);
    let order = cost_order(&jobs, |&(n, _)| n);
    let run = |&i: &usize| run_seed(make, jobs[i].0, jobs[i].1, max_steps);
    let (results, rollup) = fan_out(&order, run, |_| 1);
    let mut flat = vec![(false, 0.0); jobs.len()];
    for (i, result) in order.into_iter().zip(results) {
        flat[i] = result;
    }
    (flat, rollup)
}

/// `InvalidInput` when `seeds ≥ 2^32`: job seeds derive from the packed
/// index `(size_index << 32) | seed_index`, which would then collide the
/// seed streams of different sizes. The durable sweeps check this first.
pub(crate) fn check_seeds(seeds: u64) -> io::Result<()> {
    if seeds < 1 << 32 {
        return Ok(());
    }
    let msg = format!("sweeps support at most 2^32 - 1 seeds per size (got {seeds})");
    Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
}

/// Builds a sweep's `(n, seed)` job list: `seeds` jobs per entry of `ns`, in
/// entry order, each job seeded from the packed index
/// `(size_index << 32) | seed_index` so every (size, run) pair draws an
/// independent deterministic stream.
///
/// # Panics
///
/// Panics when `seeds ≥ 2^32`: the packed index would silently collide the
/// seed streams of different sizes.
pub(crate) fn sweep_jobs(ns: &[usize], seeds: u64, master_seed: u64) -> Vec<(usize, u64)> {
    if let Err(e) = check_seeds(seeds) {
        panic!("{e}");
    }
    let seq = SeedSequence::new(master_seed);
    let mut jobs = Vec::with_capacity(ns.len() * seeds as usize);
    for (ni, &n) in ns.iter().enumerate() {
        for s in 0..seeds {
            jobs.push((n, seq.seed_at((ni as u64) << 32 | s)));
        }
    }
    jobs
}

/// Runs one seed to stabilization on its own [`CountSimulation`]:
/// `(converged, parallel_time)`.
pub(crate) fn run_seed<P, F>(make: &F, n: usize, seed: u64, max_steps: u64) -> (bool, f64)
where
    P: LeaderElection,
    F: Fn(usize) -> P,
{
    let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut sim =
        CountSimulation::new(make(n), n, rng).expect("population sizes are >= 2 by construction");
    let outcome = sim.run_until_single_leader(max_steps);
    (outcome.converged, outcome.parallel_time(n))
}

/// Aggregates flat per-job outcomes into one [`SweepPoint`] per entry of
/// `ns`, by contiguous job range, not by population-size value: a repeated
/// n in `ns` must yield independent points instead of double-counting
/// every run of that size into each of them.
pub(crate) fn aggregate_points(
    ns: &[usize],
    seeds: u64,
    outcomes: &[(bool, f64)],
) -> Vec<SweepPoint> {
    ns.iter()
        .enumerate()
        .map(|(ni, &n)| {
            let mut times = Summary::new();
            let mut unconverged = 0;
            let range = ni * seeds as usize..(ni + 1) * seeds as usize;
            for &(converged, t) in &outcomes[range] {
                if converged {
                    times.push(t);
                } else {
                    unconverged += 1;
                }
            }
            SweepPoint {
                n,
                times,
                unconverged,
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pp_protocols::Fratricide;

    /// Runs `f` with `PP_SIM_THREADS` set to `threads`, then restores it.
    /// The variable is process-global, so the tests that set it take turns.
    pub(crate) fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
        static LOCK: Mutex<()> = Mutex::new(());
        let _turn = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var("PP_SIM_THREADS").ok();
        std::env::set_var("PP_SIM_THREADS", threads);
        let out = f();
        match saved {
            Some(v) => std::env::set_var("PP_SIM_THREADS", v),
            None => std::env::remove_var("PP_SIM_THREADS"),
        }
        out
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&jobs, |&x| x + 1);
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn parallel_map_propagates_worker_panics() {
        // A panicking job must surface in the caller (via the worker's join
        // handle), not silently poison a result slot.
        let jobs: Vec<u64> = (0..64).collect();
        parallel_map(&jobs, |&x| {
            assert!(x != 13, "unlucky job");
            x
        });
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let out: Vec<u64> = parallel_map(&[], |&x: &u64| x);
        assert!(out.is_empty());
        let out = parallel_map(&[7u64], |&x| x * 2);
        assert_eq!(out, vec![14]);
    }

    #[test]
    fn rollups_record_fanout_throughput() {
        // The flag is process-global, so concurrent tests may add rollups
        // of their own; assert ours is among the drained set.
        enable_sweep_rollup();
        let jobs: Vec<u64> = (0..137).collect();
        let _ = parallel_map(&jobs, |&x| x);
        let rollups = take_sweep_rollups();
        let ours = rollups
            .iter()
            .find(|r| r.jobs == 137)
            .expect("the fan-out recorded a rollup");
        assert!(ours.workers >= 1);
        assert!(ours.wall_seconds >= 0.0);
        assert!(ours.jobs_per_second > 0.0);
        let json = ours.to_json();
        assert!(json.contains("\"jobs\":137"), "{json}");
    }

    #[test]
    fn rollup_json_carries_process_and_shard_identity() {
        let mut rollup = SweepRollup {
            jobs: 4,
            workers: 2,
            wall_seconds: 2.0,
            jobs_per_second: 2.0,
            pid: 7,
            shard: None,
        };
        let json = rollup.to_json();
        assert!(json.contains("\"pid\":7"), "{json}");
        assert!(json.contains("\"shard\":null"), "{json}");
        rollup.shard = Some(3);
        let json = rollup.to_json();
        assert!(json.contains("\"shard\":3"), "{json}");
    }

    #[test]
    fn eta_suffix_qualifies_straggler_dominated_estimates() {
        // No completed jobs yet, or nothing left: no estimate.
        assert_eq!(eta_suffix(0, 4, 10, 1.0), "");
        assert_eq!(eta_suffix(10, 10, 10, 1.0), "");
        // Completed-rate extrapolation: 5 done in 5 s → 1 job/s, 5 remain.
        // Nothing claimed beyond the finished jobs — plain estimate.
        assert_eq!(eta_suffix(5, 5, 10, 5.0), ", eta 5s");
        // In-flight stragglers below half the remainder — still plain.
        assert_eq!(eta_suffix(5, 7, 10, 5.0), ", eta 5s");
        // Claimed-but-unfinished ≥ half of what remains: the extrapolation
        // is a floor, and the line must say so.
        assert_eq!(eta_suffix(5, 9, 10, 5.0), ", eta \u{2265} 5s");
        assert_eq!(eta_suffix(2, 10, 10, 4.0), ", eta \u{2265} 16s");
    }

    #[test]
    fn cost_order_is_largest_n_first_and_stable() {
        // ns deliberately not sorted: the order must pick every n = 64 job
        // first while preserving job order within each size.
        let jobs = sweep_jobs(&[16, 64, 32], 3, 3);
        let order = cost_order(&jobs, |&(n, _)| n);
        let ns: Vec<usize> = order.iter().map(|&i| jobs[i].0).collect();
        assert_eq!(ns, vec![64, 64, 64, 32, 32, 32, 16, 16, 16]);
        assert_eq!(order, vec![3, 4, 5, 6, 7, 8, 0, 1, 2]);
    }

    #[test]
    fn largest_n_first_scheduling_keeps_results_in_job_order() {
        // The scheduled sweep must scatter back to exactly the flat
        // job-order results of a plain job-by-job traversal — same order,
        // same bits.
        let ns = [32usize, 16];
        let (flat, _) = sweep_flat(&|_| Fratricide, &ns, 5, 42, u64::MAX);
        let expected: Vec<(bool, f64)> = sweep_jobs(&ns, 5, 42)
            .iter()
            .map(|&(n, seed)| run_seed(&|_| Fratricide, n, seed, u64::MAX))
            .collect();
        assert_eq!(flat.len(), expected.len());
        for (a, b) in flat.iter().zip(&expected) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn worker_override_clamps_like_engine_config() {
        // Parseable values clamp into 1..=MAX_WORKERS; garbage and absence
        // fall back to the detected parallelism (itself clamped).
        assert_eq!(worker_override(Some("4"), 8), 4);
        assert_eq!(worker_override(Some(" 12 "), 8), 12);
        assert_eq!(worker_override(Some("0"), 8), 1);
        assert_eq!(worker_override(Some("9999999"), 8), MAX_WORKERS);
        assert_eq!(worker_override(Some("two"), 8), 8);
        assert_eq!(worker_override(Some(""), 8), 8);
        assert_eq!(worker_override(None, 8), 8);
        assert_eq!(worker_override(None, 0), 1);
    }

    #[test]
    fn sweep_is_deterministic_and_converges() {
        let ns = [16usize, 32];
        let a = stabilization_sweep(|_| Fratricide, &ns, 5, 42, u64::MAX);
        let b = stabilization_sweep(|_| Fratricide, &ns, 5, 42, u64::MAX);
        assert_eq!(a.len(), 2);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.n, pb.n);
            assert_eq!(pa.unconverged, 0);
            assert_eq!(pa.times.count(), 5);
            assert!((pa.times.mean() - pb.times.mean()).abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_checksums_ignore_block_width_and_threads() {
        // Every seed runs on its own scalar engine, so a sweep's results are
        // a function of (protocol, n, master seed, seed index, max_steps)
        // alone: the worker count of the per-seed fan-out and the width of
        // the blocks a fabric worker claims must not move a bit.
        let ns = [2048usize, 32, 4096];
        let checksums = |points: &[SweepPoint]| -> Vec<u64> {
            points.iter().map(|p| p.times.checksum()).collect()
        };
        let mut runs = Vec::new();
        for workers in ["1", "2"] {
            let (flat, _) = with_threads(workers, || {
                sweep_flat(&|_| Fratricide, &ns, 11, 7, u64::MAX)
            });
            let points = aggregate_points(&ns, 11, &flat);
            runs.push((format!("{workers} threads"), checksums(&points)));
        }
        for block in [1, 3, 8] {
            let spec = crate::fabric::FabricSpec {
                protocol: "fratricide".into(),
                ns: ns.to_vec(),
                seeds: 11,
                master_seed: 7,
                max_steps: u64::MAX,
                lanes: block,
            };
            let dir =
                std::env::temp_dir().join(format!("ppsweep_width_{}_{block}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            crate::fabric::run_worker_shard(|_| Fratricide, &spec, &dir, 0, None)
                .expect("worker runs");
            let merged = crate::fabric::merge_shards(&spec, &dir, 1).expect("merge");
            let _ = std::fs::remove_dir_all(&dir);
            let points = merged.points.expect("every job is journaled");
            runs.push((format!("block {block}"), checksums(&points)));
        }
        let (_, reference) = &runs[0];
        for (run, sums) in &runs {
            assert_eq!(sums, reference, "{run}");
        }
    }

    #[test]
    fn sweep_rollup_counts_seeds_not_blocks() {
        // Regression: the sweep fanned out 8-seed blocks, so a one-size
        // 8-seed sweep reported one job on one worker and idled every
        // other core. One seed per item: 8 jobs, spread over the workers.
        with_threads("2", || {
            let (flat, rollup) = sweep_flat(&|_| Fratricide, &[4096], 8, 42, u64::MAX);
            assert_eq!(flat.len(), 8);
            assert_eq!(rollup.jobs, 8);
            assert_eq!(rollup.workers, worker_count(8) as u64);
            assert_eq!(rollup.shard, None);
        });
    }

    #[test]
    fn sweep_counts_unconverged_runs() {
        // A 1-step budget cannot elect among 16 leaders.
        let points = stabilization_sweep(|_| Fratricide, &[16], 4, 1, 1);
        assert_eq!(points[0].unconverged, 4);
        assert_eq!(points[0].times.count(), 0);
    }

    #[test]
    fn repeated_sizes_aggregate_into_independent_points() {
        // Regression: aggregation used to filter outcomes by the size
        // *value*, so ns = [8, 8] double-counted every run of that size
        // into both points (2 × seeds observations each). Each point must
        // hold exactly its own seeds — and distinct ones, since job seeds
        // derive from the packed (size index, seed index).
        let seeds = 6;
        let points = stabilization_sweep(|_| Fratricide, &[8, 8], seeds, 99, u64::MAX);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.n, 8);
            assert_eq!(p.times.count() + p.unconverged, seeds);
        }
        // Different seed blocks: equality of the two means would be a
        // (astronomically unlikely) coincidence.
        assert!(
            (points[0].times.mean() - points[1].times.mean()).abs() > 1e-9,
            "repeated sizes appear to share seed streams"
        );
    }

    #[test]
    fn sweep_rides_the_jump_scheduler_at_scale() {
        // 2^14 fratricide takes Θ(n²) ≈ 2.7e8 interactions per run — hours
        // of debug-build stepping without null telescoping, milliseconds
        // with it. Every run must complete under an effectively unbounded
        // budget, and the mean must match the exact law: from k leaders
        // the next kill takes a geometric number of steps with success
        // probability p_k = k(k−1)/(n(n−1)), so the parallel time has mean
        // (n−1)²/n and variance Σ (1−p_k)/p_k² / n² (SD ≈ 0.54n). Band: 4
        // standard errors of the 32-seed mean (≈ 0.38n).
        let (n, seeds) = (1usize << 14, 32);
        let points = stabilization_sweep(|_| Fratricide, &[n], seeds, 5, u64::MAX);
        assert_eq!(points[0].unconverged, 0);
        assert_eq!(points[0].times.count(), seeds);
        let nf = n as f64;
        let exact = (nf - 1.0).powi(2) / nf;
        let var: f64 = (2..=n)
            .map(|k| {
                let p = (k * (k - 1)) as f64 / (nf * (nf - 1.0));
                (1.0 - p) / (p * p)
            })
            .sum::<f64>()
            / (nf * nf);
        let band = 4.0 * (var / seeds as f64).sqrt();
        let mean = points[0].times.mean();
        assert!(
            (mean - exact).abs() <= band,
            "mean parallel time {mean:.1} vs exact {exact:.1} ± {band:.1} at n = {n}"
        );
    }
}
