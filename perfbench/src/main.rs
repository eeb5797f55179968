//! The repository benchmark: `trial-churn`, `module-sweep` and `table4`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <trial-churn|module-sweep|table4> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing. `--trace 1`
//! runs the same untraced timed phase, then replays a sample of its
//! operations through the public calls of each layer, timing each call
//! from this package (see `README.md` for the metric definitions and the
//! layer map). The last line of standard output is one JSON object; a
//! human-readable report goes to standard error. The process exits
//! non-zero when the correctness gate fails.

// Configuration structs are built with `..Default::default()` even where
// every field is set, so fields added to them later keep this package
// compiling with their defaults.
#![allow(clippy::needless_update)]

mod report;
mod table4;
mod trials;

use std::process::ExitCode;

use report::Report;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrialChurn,
    ModuleSweep,
    Table4,
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    /// Root of every machine, campaign and runner seed of the run.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced replica after the timed phase.
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "trial-churn" => Workload::TrialChurn,
                    "module-sweep" => Workload::ModuleSweep,
                    "table4" => Workload::Table4,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The seed whose correctness digests are pinned in the workload modules.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64 finalizer: derives independent seeds from the run seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <trial-churn|module-sweep|table4> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload {
        Workload::TrialChurn => trials::run(&trials::CHURN, &args),
        Workload::ModuleSweep => trials::run(&trials::SWEEP, &args),
        Workload::Table4 => table4::run(&args),
    };
    report.print(args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
