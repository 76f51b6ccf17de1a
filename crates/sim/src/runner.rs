//! Parallel execution of embarrassingly parallel experiment jobs.
//!
//! [`parallel_map`] fans jobs out across worker **threads**; it is the one
//! thread pool every sweep rides. [`stabilization_sweep`] hands each worker
//! a **block** of same-`n` seeds, largest-`n`-first ([`cost_order`]), and
//! runs every seed of the block on its own scalar [`CountSimulation`]; the
//! durable sweeps run the same blocks through `checkpoint::drive_blocks`.
//! A seed's result is a pure function of `(protocol, n, master seed, seed
//! index, max_steps)`, so neither the block size nor the thread count
//! (`PP_SIM_THREADS`, the one env override, for reproducible benchmarking)
//! changes a bit of the output.

use pp_engine::{CountSimulation, LeaderElection, Simulation, UniformScheduler};
use pp_rand::{SeedSequence, Xoshiro256PlusPlus};
use pp_stats::Summary;
use std::io::{self, IsTerminal, Write as _};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on the `PP_SIM_THREADS` override (clamped rather than
/// erroring).
const MAX_WORKERS: usize = 1024;

/// Seeds per sweep block: small enough that a grid of a few sizes spreads
/// over every worker, large enough that claim files and journal appends
/// stay rare next to the runs they record.
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

/// Seeds per sweep block, fixed at 8: the block size
/// [`stabilization_sweep`] and the checkpointed sweep use, and the default
/// width of a [`FabricSpec`](crate::fabric::FabricSpec). Results never
/// depend on it.
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
/// [`enable_sweep_rollup`]). One rollup per `parallel_map` call — a
/// sweep's experiment typically accumulates several.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRollup {
    /// Items the fan-out mapped — blocks, for a sweep's fan-out. A fabric
    /// worker's count includes blocks a racing shard claimed first, so it
    /// is no measure of that worker's throughput.
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
    /// Sweep-fabric shard identity ([`set_sweep_shard`]), `None` outside
    /// `ppsweep` worker mode.
    pub shard: Option<u64>,
}

impl SweepRollup {
    /// Serializes the rollup as one JSON object (hand-rolled; the
    /// workspace takes no serde dependency). `shard` is `null` outside
    /// fabric worker mode.
    pub fn to_json(&self) -> String {
        let shard = self
            .shard
            .map_or_else(|| "null".to_string(), |s| s.to_string());
        format!(
            "{{\"jobs\":{},\"workers\":{},\"wall_seconds\":{},\"jobs_per_second\":{},\
             \"pid\":{},\"shard\":{shard}}}",
            self.jobs, self.workers, self.wall_seconds, self.jobs_per_second, self.pid
        )
    }
}

static ROLLUPS: OnceLock<Mutex<Vec<SweepRollup>>> = OnceLock::new();
static ROLLUP_ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-global shard identity for rollups: `-1` encodes `None` (shard
/// ids are far below `i64::MAX` — the fabric caps shard counts at 4096).
static SWEEP_SHARD: AtomicI64 = AtomicI64::new(-1);

/// Declares which sweep-fabric shard this process is (or `None` to clear);
/// every subsequent [`SweepRollup`] carries it. Called once at `ppsweep`
/// worker startup so `--metrics-out`-style reports can attribute fan-outs
/// to shards when aggregating cross-process throughput.
pub fn set_sweep_shard(shard: Option<u64>) {
    let encoded = shard.map_or(-1, |s| i64::try_from(s).expect("shard ids are small"));
    SWEEP_SHARD.store(encoded, Ordering::Release);
}

/// The shard identity declared by [`set_sweep_shard`], if any.
pub fn sweep_shard() -> Option<u64> {
    match SWEEP_SHARD.load(Ordering::Acquire) {
        -1 => None,
        s => Some(s as u64),
    }
}

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
    if ROLLUP_ENABLED.load(Ordering::Acquire) {
        let wall = started.elapsed().as_secs_f64();
        let rollup = SweepRollup {
            jobs: total as u64,
            workers: workers as u64,
            wall_seconds: wall,
            jobs_per_second: if wall > 0.0 { total as f64 / wall } else { 0.0 },
            pid: std::process::id(),
            shard: sweep_shard(),
        };
        ROLLUPS
            .get_or_init(|| Mutex::new(Vec::new()))
            .lock()
            .expect("rollup lock poisoned")
            .push(rollup);
    }
    results
        .into_iter()
        .map(|r| r.expect("every job index was claimed exactly once"))
        .collect()
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
/// Each [`parallel_map`] worker receives a **block** of up to
/// [`sweep_lane_width`] same-`n` seeds and runs each on its own
/// [`CountSimulation`], whose tiers pick the cheapest exact execution per
/// phase (the jump scheduler telescopes null-dominated tails: a fratricide
/// sweep point at `n = 2^28` telescopes `~10^16` null interactions and
/// completes in seconds). Every run is an exact simulation of the
/// uniformly random scheduler, so the measured distribution is the same
/// law as the per-agent engine's at a vanishing fraction of the cost, and
/// every result is deterministic for a fixed `master_seed` — independent
/// of block size and thread count. Use [`stabilization_sweep_agents`] to
/// drive the per-agent reference engine instead (e.g. to cross-validate
/// the engines against each other).
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
    let flat = sweep_flat(ns, seeds, master_seed, sweep_lane_width(), |bundle| {
        run_bundle(&make, bundle.n, &bundle.seeds, max_steps)
    });
    aggregate_points(ns, seeds, &flat)
}

/// Cost-model ordering of a bundle fan-out: indices into `bundles`,
/// most-expensive-first.
///
/// Per-bundle cost is monotone in `n` for every protocol in this workspace
/// (table 1's scaling exponents all have positive slope: even the
/// `O(log n)`-time protocols cost `Ω(n)` work per seed since steps scale as
/// `n · time`), so
/// largest-`n`-first **is** the fitted-cost order — no per-protocol rate
/// table needed for ordering to be correct, only monotonicity. The sort is
/// stable, so same-`n` bundles keep job order.
///
/// Why ordering matters: stabilization times are heavy-tailed per seed, and
/// a mixed-`n` grid's biggest bundles dominate the makespan. A FIFO
/// fan-out can hand a worker a largest-`n` bundle *last*, leaving every
/// other worker idle behind it; scheduling the expensive work first bounds
/// that idle tail by the cheapest bundle's cost instead of the dearest's
/// (classic LPT scheduling). Results are scattered back by bundle start
/// index, so observable output is unchanged.
pub(crate) fn cost_order(bundles: &[SweepBundle]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..bundles.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(bundles[i].n));
    order
}

/// Job-ordered flat `(converged, parallel_time)` outcomes of a sweep in
/// blocks of `block` seeds, each block run by `run`: the in-memory sweep
/// fan-out of [`stabilization_sweep`], [`stabilization_sweep_agents`] and
/// the sweep fabric's sequential mode. Blocks fan out largest-`n`-first
/// ([`cost_order`]) and results come back in block-start order, so the
/// returned order — and every bit of every result — is independent of the
/// scheduling and of `block`.
pub(crate) fn sweep_flat<R>(
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    block: usize,
    run: R,
) -> Vec<(bool, f64)>
where
    R: Fn(&SweepBundle) -> Vec<(bool, f64)> + Sync,
{
    let bundles = sweep_bundles(ns, seeds, master_seed, block);
    let order = cost_order(&bundles);
    let ordered: Vec<&SweepBundle> = order.iter().map(|&i| &bundles[i]).collect();
    let mut outcomes = parallel_map(&ordered, |bundle| (bundle.start, run(bundle)));
    // Blocks partition the job list into contiguous ranges, so concatenating
    // them by start restores flat job order (the aggregation slices by
    // contiguous job range).
    outcomes.sort_unstable_by_key(|&(start, _)| start);
    outcomes
        .into_iter()
        .flat_map(|(_, results)| results)
        .collect()
}

/// [`stabilization_sweep`] on the per-agent reference engine
/// ([`Simulation`] + [`UniformScheduler`]), on the same fan-out, one seed
/// per block.
///
/// Slower and `O(n)` memory per run, but exercises the engine whose
/// semantics are the most direct reading of the model — useful when a sweep
/// doubles as an engine cross-check.
pub fn stabilization_sweep_agents<P, F>(
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
    let flat = sweep_flat(ns, seeds, master_seed, 1, |bundle| {
        let n = bundle.n;
        bundle
            .seeds
            .iter()
            .map(|&seed| {
                let scheduler = UniformScheduler::seed_from_u64(seed);
                let mut sim = Simulation::new(make(n), n, scheduler)
                    .expect("population sizes are >= 2 by construction");
                let outcome = sim.run_until_single_leader(max_steps);
                (outcome.converged, outcome.parallel_time(n))
            })
            .collect()
    });
    aggregate_points(ns, seeds, &flat)
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

/// One sweep block: a contiguous run of same-`n` seed-stream jobs, the
/// unit a worker runs and the checkpoint layer and fabric journal.
#[derive(Debug, Clone)]
pub(crate) struct SweepBundle {
    /// Population size shared by every job of the block.
    pub n: usize,
    /// Flat job index of the block's first job (the aggregation order).
    pub start: usize,
    /// Per-job RNG seeds, in job order.
    pub seeds: Vec<u64>,
}

/// Partitions the flat job list of [`sweep_jobs`] into blocks of up to
/// `block` same-`n` jobs. Blocks never span two entries of `ns` (each
/// size's seed range chunks independently), so aggregation ranges stay
/// contiguous.
pub(crate) fn sweep_bundles(
    ns: &[usize],
    seeds: u64,
    master_seed: u64,
    block: usize,
) -> Vec<SweepBundle> {
    let (block, per_size) = (block.max(1), (seeds as usize).max(1));
    let jobs = sweep_jobs(ns, seeds, master_seed);
    let mut bundles = Vec::new();
    for (size, size_jobs) in jobs.chunks(per_size).enumerate() {
        for (k, chunk) in size_jobs.chunks(block).enumerate() {
            bundles.push(SweepBundle {
                n: chunk[0].0,
                start: size * per_size + k * block,
                seeds: chunk.iter().map(|&(_, seed)| seed).collect(),
            });
        }
    }
    bundles
}

/// Runs every seed of one block to stabilization, each on its own
/// [`CountSimulation`]. Returns `(converged, parallel_time)` per seed in
/// job order.
pub(crate) fn run_bundle<P, F>(
    make: &F,
    n: usize,
    seeds: &[u64],
    max_steps: u64,
) -> Vec<(bool, f64)>
where
    P: LeaderElection,
    F: Fn(usize) -> P,
{
    seeds
        .iter()
        .map(|&seed| {
            let rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut sim = CountSimulation::new(make(n), n, rng)
                .expect("population sizes are >= 2 by construction");
            let outcome = sim.run_until_single_leader(max_steps);
            (outcome.converged, outcome.parallel_time(n))
        })
        .collect()
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
mod tests {
    use super::*;
    use pp_protocols::Fratricide;

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
        // ns deliberately not sorted: 5 seeds at width 2 → bundles
        // [2, 2, 1] per size, and the order must pick every n = 64 bundle
        // first while preserving job order within each size.
        let bundles = sweep_bundles(&[16, 64, 32], 5, 3, 2);
        let order = cost_order(&bundles);
        let ns: Vec<usize> = order.iter().map(|&i| bundles[i].n).collect();
        assert_eq!(ns, vec![64, 64, 64, 32, 32, 32, 16, 16, 16]);
        let starts: Vec<usize> = order.iter().map(|&i| bundles[i].start).collect();
        assert_eq!(starts, vec![5, 7, 9, 10, 12, 14, 0, 2, 4]);
    }

    #[test]
    fn largest_n_first_scheduling_keeps_results_in_job_order() {
        // The scheduled sweep must scatter back to exactly the flat
        // job-order results of a plain bundle-by-bundle traversal — same
        // order, same bits.
        let ns = [32usize, 16];
        let flat = sweep_flat(&ns, 5, 42, 2, |b| {
            run_bundle(&|_| Fratricide, b.n, &b.seeds, u64::MAX)
        });
        let bundles = sweep_bundles(&ns, 5, 42, 2);
        let expected: Vec<(bool, f64)> = bundles
            .iter()
            .flat_map(|b| run_bundle(&|_| Fratricide, b.n, &b.seeds, u64::MAX))
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
    fn sweep_bundles_partition_the_job_list() {
        // 5 seeds at width 2 → [2, 2, 1] per size; bundles never span
        // sizes, starts are the flat job indices, seeds match sweep_jobs.
        let ns = [16usize, 32];
        let (seeds, master) = (5u64, 3u64);
        let jobs = sweep_jobs(&ns, seeds, master);
        let bundles = sweep_bundles(&ns, seeds, master, 2);
        assert_eq!(bundles.len(), 6);
        let widths: Vec<usize> = bundles.iter().map(|b| b.seeds.len()).collect();
        assert_eq!(widths, vec![2, 2, 1, 2, 2, 1]);
        let mut flat = 0;
        for bundle in &bundles {
            assert_eq!(bundle.start, flat);
            for (k, &seed) in bundle.seeds.iter().enumerate() {
                assert_eq!((bundle.n, seed), jobs[flat + k]);
            }
            flat += bundle.seeds.len();
        }
        assert_eq!(flat, jobs.len());
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
    fn engine_sweeps_agree_distributionally() {
        // The count-engine sweep and the agent-engine sweep sample the
        // same Markov chain: over enough seeds their means must agree
        // loosely (fratricide at n=32 has E[parallel time] ≈ n).
        let ns = [32usize];
        let fast = stabilization_sweep(|_| Fratricide, &ns, 24, 7, u64::MAX);
        let slow = stabilization_sweep_agents(|_| Fratricide, &ns, 24, 7, u64::MAX);
        assert_eq!(fast[0].unconverged, 0);
        assert_eq!(slow[0].unconverged, 0);
        let (a, b) = (fast[0].times.mean(), slow[0].times.mean());
        assert!((a / b - 1.0).abs() < 0.5, "count {a} vs agent {b}");
    }

    #[test]
    fn sweep_checksums_ignore_block_width_and_threads() {
        // Every seed runs on its own scalar engine, so a sweep's results are
        // a function of (protocol, n, master seed, seed index, max_steps)
        // alone: block width and worker count must not move a bit.
        let ns = [2048usize, 32, 4096];
        let checksums = |block: usize| -> Vec<u64> {
            let flat = sweep_flat(&ns, 11, 7, block, |b| {
                run_bundle(&|_| Fratricide, b.n, &b.seeds, u64::MAX)
            });
            aggregate_points(&ns, 11, &flat)
                .iter()
                .map(|p| p.times.checksum())
                .collect()
        };
        let threads = std::env::var("PP_SIM_THREADS").ok();
        let mut runs = Vec::new();
        for workers in ["1", "2"] {
            std::env::set_var("PP_SIM_THREADS", workers);
            for block in [1, 3, 8] {
                runs.push((workers, block, checksums(block)));
            }
        }
        match threads {
            Some(v) => std::env::set_var("PP_SIM_THREADS", v),
            None => std::env::remove_var("PP_SIM_THREADS"),
        }
        let (_, _, reference) = &runs[0];
        for (workers, block, sums) in &runs {
            assert_eq!(sums, reference, "{workers} threads, block {block}");
        }
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
