//! Metric collection, phase timing, digests and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    /// Operations attempted in the timed phase and the traced replica.
    pub attempted: u64,
    /// Operations that errored or whose simulated result failed a check.
    pub failed: u64,
    /// Why the correctness gate failed, one line each.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra human-readable lines (phase table, digest, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report { workload, ..Report::default() }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a correctness failure covering `ops` operations.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        self.problems.push(problem);
    }

    pub fn end_to_end(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = self.finite(name, value);
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn per_layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = self.finite(name, value);
        self.per_layer.push(Metric { name, value, unit });
    }

    fn finite(&mut self, name: &str, value: f64) -> f64 {
        if value.is_finite() {
            value
        } else {
            self.problems.push(format!("metric {name} is not finite ({value})"));
            0.0
        }
    }

    /// Prints the human report to stderr and the result line to stdout:
    /// end-to-end metrics without tracing, per-layer metrics with it.
    pub fn print(&self, trace: bool) {
        eprintln!("== perfbench {} ==", self.workload);
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!("  {:<30} {:>16.6} ratio", "error_rate", error_rate);
        eprintln!("  attempted {} failed {}", self.attempted, self.failed);
        for note in &self.notes {
            eprintln!("  {note}");
        }
        for problem in &self.problems {
            eprintln!("  FAILED: {problem}");
        }
        let metrics = if trace { &self.per_layer } else { &self.end_to_end };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// One operation completed in the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Seconds from the start of the timed phase to the result.
    pub at_s: f64,
    /// Submit-to-result latency.
    pub latency_ms: f64,
    /// Work it completed, in the unit `ops_per_s` counts.
    pub work: u64,
}

/// Fewest operations per window: ten of them lie beyond the window's p90.
const MIN_WINDOW_OPS: usize = 100;
/// Most windows per timed phase.
const MAX_WINDOWS: usize = 10;

/// Reports `ops_per_s`, `latency_p50_ms` and `latency_p90_ms` as medians
/// over consecutive windows of the timed phase, each holding an equal
/// share of the completed operations. The host's speed drifts by tens of
/// percent over seconds; the median window discards a minority of
/// disturbed windows where a whole-phase figure would average them in.
pub fn record_timed(report: &mut Report, done: &mut [Completion]) {
    if done.is_empty() {
        report.fail(0, "no operation completed in the timed phase".into());
        return;
    }
    done.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let windows = (done.len() / MIN_WINDOW_OPS).clamp(1, MAX_WINDOWS);
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let mut start_s = 0.0;
    for w in 0..windows {
        let window = &done[w * done.len() / windows..(w + 1) * done.len() / windows];
        let end_s = window.last().expect("windows hold at least one operation").at_s;
        let work: u64 = window.iter().map(|c| c.work).sum();
        rates.push(work as f64 / (end_s - start_s));
        let latencies: Vec<f64> = window.iter().map(|c| c.latency_ms).collect();
        p50s.push(percentile(&latencies, 50));
        p90s.push(percentile(&latencies, 90));
        start_s = end_s;
    }
    report.end_to_end("ops_per_s", median(&rates), "1/s");
    report.end_to_end("latency_p50_ms", median(&p50s), "ms");
    report.end_to_end("latency_p90_ms", median(&p90s), "ms");
    let rates: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    report.notes.push(format!(
        "{} operations in {start_s:.3} s, {windows} windows; ops/s per window [{}]",
        done.len(),
        rates.join(", ")
    ));
}

/// Named samples: phase wall times in milliseconds (via [`Samples::time`])
/// and per-operation counts and ratios (via [`Samples::add`]).
#[derive(Debug, Default)]
pub struct Samples {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Runs `f`, recording its wall time under `phase`.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, ms(start.elapsed()));
        out
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of `name`'s samples (0 when none were taken).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| median(s))
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// Nearest-rank `p`-th percentile of unsorted samples (0 for none).
fn percentile(samples: &[f64], p: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reports `peak_rss_mb`, failing the run when the kernel does not expose it.
pub fn record_peak_rss(report: &mut Report) {
    match peak_rss_mb() {
        Some(mb) => report.end_to_end("peak_rss_mb", mb, "MiB"),
        None => report.fail(0, "VmHWM is not readable from /proc/self/status".into()),
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 folded one little-endian `u64` word per round, with a
/// trailing partial word folded a byte at a time. Over machine contents
/// this is the recording format's version-2 contents fingerprint; the
/// benchmark carries its own copy so it keeps measuring the same work
/// when the library's fingerprint changes. It also folds the correctness
/// digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.word(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
