//! Offline stand-in for the crates.io `criterion` benchmark harness.
//!
//! The build environment for this workspace has no network access, so the
//! real `criterion` cannot be fetched. This crate reimplements the exact API
//! surface the workspace's benches use — [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Bencher`], [`criterion_group!`], [`criterion_main!`] —
//! with a plain wall-clock measurement loop instead of criterion's
//! statistical machinery. Swapping back to the real crate is a one-line
//! change in the workspace manifest; no bench source needs to change.
//!
//! Measurement model: each benchmark is warmed up for `warm_up_time`, then
//! timed over `sample_size` samples, where each sample runs the iteration
//! closure enough times to fill roughly `measurement_time / sample_size` of
//! wall clock. The median per-iteration time is reported on stdout.
//!
//! # Machine-readable results
//!
//! In addition to the stdout report, every finished benchmark is recorded
//! and, when the driver is dropped, written out as **one JSON file per
//! benchmark group** (`<group>.json`, with `/` replaced by `_`) into the
//! directory named by the `BENCH_JSON_DIR` environment variable (default
//! `target/bench-json`). Each record carries the median seconds per
//! iteration plus, when the group declared a [`Throughput`], the derived
//! elements/bytes per second, which CI's smoke-bench gates read. The
//! tracked benchmark record is `BENCH_perfbench.json` at the repo root,
//! written by `tools/bench_record.py` from the end-to-end `perfbench/`
//! crate, not by this harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::time::{Duration, Instant};

/// Throughput declaration for a benchmark group; mirrors
/// `criterion::Throughput`. The stub uses it to derive per-second rates in
/// reports and JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The routine processes this many logical elements per iteration.
    Elements(u64),
    /// The routine processes this many bytes per iteration.
    Bytes(u64),
}

/// One finished benchmark measurement.
#[derive(Debug, Clone)]
struct BenchRecord {
    group: String,
    name: String,
    median_secs: f64,
    throughput: Option<Throughput>,
}

/// Top-level benchmark driver; mirrors `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    filter: Option<String>,
    list_only: bool,
    records: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
            filter: None,
            list_only: false,
            records: Vec::new(),
        }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Set the warm-up duration before sampling starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Set the total measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Apply command-line arguments passed by `cargo bench` (`--bench` is
    /// swallowed; a bare token or `--filter`-style positional argument
    /// becomes a substring filter; `--list` lists benchmark names;
    /// `--sample-size`, `--measurement-time`, and `--warm-up-time` override
    /// the corresponding settings, the durations in (fractional) seconds).
    pub fn configure_from_args(mut self) -> Self {
        // Criterion flags that take a value in a separate argument; anything
        // not listed is treated as a bare switch so a following positional
        // filter is never swallowed.
        const VALUE_FLAGS: &[&str] = &[
            "--baseline",
            "--color",
            "--confidence-level",
            "--load-baseline",
            "--measurement-time",
            "--noise-threshold",
            "--nresamples",
            "--output-format",
            "--plotting-backend",
            "--profile-time",
            "--sample-size",
            "--save-baseline",
            "--significance-level",
            "--warm-up-time",
        ];
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            // Accept both `--flag value` and `--flag=value`.
            let (flag, inline_value) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_owned(), Some(v.to_owned())),
                _ => (arg.clone(), None),
            };
            match flag.as_str() {
                "--list" => self.list_only = true,
                "--sample-size" => {
                    let value = inline_value.or_else(|| args.next());
                    if let Some(n) = value.and_then(|v| v.parse().ok()) {
                        self = self.sample_size(n);
                    }
                }
                "--measurement-time" => {
                    let value = inline_value.or_else(|| args.next());
                    if let Some(secs) = value.and_then(|v| v.parse::<f64>().ok()) {
                        if secs > 0.0 {
                            self = self.measurement_time(Duration::from_secs_f64(secs));
                        }
                    }
                }
                "--warm-up-time" => {
                    let value = inline_value.or_else(|| args.next());
                    if let Some(secs) = value.and_then(|v| v.parse::<f64>().ok()) {
                        if secs > 0.0 {
                            self = self.warm_up_time(Duration::from_secs_f64(secs));
                        }
                    }
                }
                f if VALUE_FLAGS.contains(&f) => {
                    if inline_value.is_none() {
                        let _ = args.next();
                    }
                }
                f if f.starts_with("--") => {}
                _ => self.filter = Some(arg),
            }
        }
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Run a free-standing benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one("ungrouped", &id.to_string(), None, f);
        self
    }

    /// Print the closing summary. The stub has nothing aggregate to report;
    /// exists so `criterion_main!` expands identically to the real crate.
    pub fn final_summary(&self) {}

    fn run_one<F>(&mut self, group: &str, name: &str, throughput: Option<Throughput>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        if self.list_only {
            println!("{name}: benchmark");
            return;
        }
        let mut bencher = Bencher {
            mode: Mode::WarmUp {
                until: Instant::now() + self.warm_up_time,
            },
            samples: Vec::new(),
        };
        f(&mut bencher);
        let per_sample =
            self.measurement_time.max(Duration::from_millis(1)) / self.sample_size as u32;
        bencher.mode = Mode::Measure {
            per_sample,
            remaining: self.sample_size,
        };
        f(&mut bencher);
        if let Some(median_secs) = bencher.report(name, throughput) {
            self.records.push(BenchRecord {
                group: group.to_owned(),
                name: name.to_owned(),
                median_secs,
                throughput,
            });
        }
    }

    /// Writes one JSON file per benchmark group with the collected medians
    /// (see the [module docs](self)); called automatically on drop.
    fn write_json_reports(&self) {
        if self.records.is_empty() {
            return;
        }
        let dir = std::env::var("BENCH_JSON_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| default_json_dir());
        if fs::create_dir_all(&dir).is_err() {
            return;
        }
        let mut groups: Vec<&str> = self.records.iter().map(|r| r.group.as_str()).collect();
        groups.sort_unstable();
        groups.dedup();
        for group in groups {
            let mut json = String::new();
            json.push_str("{\n");
            json.push_str(&format!("  \"group\": \"{}\",\n", escape(group)));
            json.push_str("  \"benchmarks\": [\n");
            let records: Vec<&BenchRecord> =
                self.records.iter().filter(|r| r.group == group).collect();
            for (i, r) in records.iter().enumerate() {
                json.push_str("    {");
                json.push_str(&format!("\"name\": \"{}\", ", escape(&r.name)));
                json.push_str(&format!("\"median_seconds_per_iter\": {:e}", r.median_secs));
                match r.throughput {
                    Some(Throughput::Elements(n)) => {
                        json.push_str(&format!(", \"elements_per_iter\": {n}"));
                        json.push_str(&format!(
                            ", \"elements_per_second\": {:e}",
                            n as f64 / r.median_secs
                        ));
                    }
                    Some(Throughput::Bytes(n)) => {
                        json.push_str(&format!(", \"bytes_per_iter\": {n}"));
                        json.push_str(&format!(
                            ", \"bytes_per_second\": {:e}",
                            n as f64 / r.median_secs
                        ));
                    }
                    None => {}
                }
                json.push('}');
                json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
            }
            json.push_str("  ]\n}\n");
            let file = dir.join(format!("{}.json", group.replace(['/', ' '], "_")));
            let _ = fs::write(file, json);
        }
    }
}

/// Default JSON output directory: `<target>/bench-json`, located from the
/// running bench executable (`<target>/<profile>/deps/<bench>`). Cargo runs
/// bench binaries with the *package* root as the working directory, so a
/// cwd-relative default would scatter files across member crates.
fn default_json_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|p| p.file_name().is_some_and(|n| n == "target"))
                .map(|t| t.join("bench-json"))
        })
        .unwrap_or_else(|| std::path::PathBuf::from("target/bench-json"))
}

impl Drop for Criterion {
    fn drop(&mut self) {
        self.write_json_reports();
    }
}

/// Minimal JSON string escaping for benchmark names.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

enum Mode {
    /// Run iterations until the deadline, discarding timings.
    WarmUp { until: Instant },
    /// Collect `remaining` samples of ~`per_sample` wall clock each.
    Measure {
        per_sample: Duration,
        remaining: usize,
    },
}

/// Timing loop handed to each benchmark closure; mirrors
/// `criterion::Bencher`.
pub struct Bencher {
    mode: Mode,
    samples: Vec<f64>,
}

impl Bencher {
    /// Time `routine`, calling it repeatedly per the harness configuration.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        match self.mode {
            Mode::WarmUp { until } => {
                while Instant::now() < until {
                    std::hint::black_box(routine());
                }
            }
            Mode::Measure {
                per_sample,
                remaining,
            } => {
                // Calibrate how many iterations fill one sample window.
                let probe = Instant::now();
                std::hint::black_box(routine());
                let once = probe.elapsed().max(Duration::from_nanos(1));
                let iters = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1 << 30) as u64;
                for _ in 0..remaining {
                    let start = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(routine());
                    }
                    let elapsed = start.elapsed();
                    self.samples.push(elapsed.as_secs_f64() / iters as f64);
                }
            }
        }
    }

    fn report(&mut self, name: &str, throughput: Option<Throughput>) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let median = self.samples[self.samples.len() / 2];
        match throughput {
            Some(Throughput::Elements(n)) => println!(
                "{name:<48} time: [{}] thrpt: [{}]",
                HumanTime(median),
                HumanRate(n as f64 / median, "elem/s")
            ),
            Some(Throughput::Bytes(n)) => println!(
                "{name:<48} time: [{}] thrpt: [{}]",
                HumanTime(median),
                HumanRate(n as f64 / median, "B/s")
            ),
            None => println!("{name:<48} time: [{}]", HumanTime(median)),
        }
        Some(median)
    }
}

struct HumanTime(f64);

impl fmt::Display for HumanTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.4} s")
        } else if s >= 1e-3 {
            write!(f, "{:.4} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.4} µs", s * 1e6)
        } else {
            write!(f, "{:.4} ns", s * 1e9)
        }
    }
}

struct HumanRate(f64, &'static str);

impl fmt::Display for HumanRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (r, unit) = (self.0, self.1);
        if r >= 1e9 {
            write!(f, "{:.4} G{unit}", r / 1e9)
        } else if r >= 1e6 {
            write!(f, "{:.4} M{unit}", r / 1e6)
        } else if r >= 1e3 {
            write!(f, "{:.4} K{unit}", r / 1e3)
        } else {
            write!(f, "{r:.4} {unit}")
        }
    }
}

/// A benchmark within a [`BenchmarkGroup`]; names are `group/benchmark`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare the per-iteration throughput of subsequent benchmarks in
    /// this group; mirrors `criterion::BenchmarkGroup::throughput`.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(&self.name, &full, self.throughput, f);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(&self.name, &full, self.throughput, |b| f(b, input));
        self
    }

    /// Finish the group. A no-op in the stub; criterion emits summaries here.
    pub fn finish(self) {}
}

/// Identifier for a (possibly parameterized) benchmark; mirrors
/// `criterion::BenchmarkId`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BenchmarkId {
    function_name: Option<String>,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A benchmark named `function_name` with parameter `parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function_name: Some(function_name.into()),
            parameter: Some(parameter.to_string()),
        }
    }

    /// A benchmark identified by its parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function_name: None,
            parameter: Some(parameter.to_string()),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.function_name, &self.parameter) {
            (Some(name), Some(param)) => write!(f, "{name}/{param}"),
            (Some(name), None) => write!(f, "{name}"),
            (None, Some(param)) => write!(f, "{param}"),
            (None, None) => write!(f, "benchmark"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            function_name: Some(name.to_owned()),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            function_name: Some(name),
            parameter: None,
        }
    }
}

/// Re-export of [`std::hint::black_box`], as the real criterion provides.
pub use std::hint::black_box;

/// Define a benchmark group function; mirrors `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default().configure_from_args();
            targets = $($target),+
        }
    };
}

/// Define `main` running the given groups; mirrors
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::Criterion::default().configure_from_args().final_summary();
        }
    };
}
