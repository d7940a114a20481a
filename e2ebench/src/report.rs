//! Result accounting shared by every workload: the operation tally, the
//! ordered metric list, timing helpers and the final JSON line.

use std::time::{Duration, Instant};

/// Attempted and failed operations plus the outcome of every correctness
/// check. A failed check makes the run incorrect.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` operations that completed as expected.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `failed` of `attempted` operations as failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one correctness check; a false `pass` marks the run
    /// incorrect and keeps `what` for the error report.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn seconds(&mut self, name: &str, d: Duration) {
        self.put(name, d.as_secs_f64(), "s");
    }

    pub fn bytes(&mut self, name: &str, n: u64) {
        self.put(name, n as f64, "bytes");
    }
}

/// Prints the result line: the last line of standard output.
pub fn print_result(tally: &Tally, metrics: &Metrics) {
    for failure in &tally.failures {
        eprintln!("check failed: {failure}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The median of `xs` (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Runs `f` `reps` times, appends each wall time in seconds to
/// `samples` and returns the last result.
pub fn time_reps<T>(reps: usize, samples: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    last.expect("at least one repetition")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
