//! `replay-check` — golden-recording replay gate.
//!
//! Loads every `*.recording.json` under the recordings directory
//! (`fixtures/recordings/` by default, `$CTA_RECORDINGS_DIR` override) and
//! replays each through the scoped boot-per-trial path, asserting
//! byte-identical flip transcripts, DRAM contents hashes, simulated
//! clocks, attack outcomes, and telemetry snapshots. Any simulation
//! regression — in the DRAM model, the flip kernels, the row store, the
//! boot-time cell profiler, the kernel, or the attacks — fails this gate
//! with the first diverging observable instead of silently changing
//! every experiment. The golden set includes a CTA-protected machine
//! whose cell types come from the profiler, so its full decay (tens of
//! millions of `dram.decay_flips`) and the `ZONE_PTP` placement it
//! drives are pinned too.
//!
//! Usage:
//!
//! ```text
//! replay-check                     # replay all fixtures (scoped path)
//! replay-check --executor         # replay through the campaign executor too
//! replay-check --record           # regenerate the fixtures from the specs
//! replay-check FILE ...           # replay specific recording files
//! ```
//!
//! `--executor` additionally replays every fixture *through the
//! persistent [`CampaignExecutor`]* at 1 and 3 workers: same goldens,
//! same byte-for-byte comparison, but served boot-once over work-stealing
//! deques, each trial journaled in place on a pooled parent and rolled
//! back. A pass proves the executor's scheduling (worker count, steal
//! interleaving, pool reuse) *and* its rollback are invisible in the
//! output, exactly as the scoped serial path promises.
//!
//! `--record` exists for intentional simulation changes: regenerate,
//! eyeball the diff, and commit the new goldens alongside the change that
//! explains them.

use std::path::PathBuf;
use std::process::ExitCode;

use cta_attack::{
    record_campaign, replay_recording, CampaignExecutor, ExecutorConfig, RecordedAttack, Recording,
    RecordingSpec, SprayAttack, TemplatingAttack,
};
use cta_core::DefenseSpec;

/// The golden campaign set: deliberately tiny machines and narrow attacks
/// so the full replay grid stays a fast tier-1 gate, while still
/// exercising both attack families, both trial outcomes (spray induces
/// flips and escalates on some seeds; templating gives up on others), a
/// multi-trial merged telemetry snapshot, and one CTA-protected machine
/// whose cell types come from the boot-time profiler (write 1s, stop
/// refresh, wait, read back), so the profiler's full decay and
/// `ZONE_PTP` placement are pinned byte for byte too.
fn golden_specs() -> Vec<(&'static str, RecordingSpec)> {
    let spray =
        SprayAttack { regions: 8, file_pages: 2, max_hammer_rows: 4, flush_per_probe: false };
    let templating = TemplatingAttack { arena_pages: 96, max_attempts: 4, flush_per_probe: false };
    // The fixtures pin the flip-log window they were recorded with, so
    // `--record` reproduces them byte for byte whatever the spec default.
    let spec = |attack, seeds| RecordingSpec {
        flip_log_capacity: 4096,
        ..RecordingSpec::new(attack, seeds)
    };
    vec![
        ("spray-small", spec(RecordedAttack::Spray(spray), vec![0, 1])),
        (
            "spray-protected-profiled",
            RecordingSpec {
                protected: true,
                profile_cells: true,
                ..spec(RecordedAttack::Spray(spray), vec![0, 1])
            },
        ),
        ("templating-small", spec(RecordedAttack::Templating(templating), vec![3])),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    cta_bench::recordings_dir().join(format!("{name}.recording.json"))
}

/// Regenerates every golden fixture from its spec.
fn record_goldens() -> ExitCode {
    let dir = cta_bench::recordings_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("replay-check: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, spec) in golden_specs() {
        let recording = match record_campaign(&spec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay-check: FAIL recording {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let json = match recording.to_json_string() {
            Ok(j) => j,
            Err(e) => {
                eprintln!("replay-check: FAIL serializing {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = fixture_path(name);
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("replay-check: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let flips: u64 = recording.trials.iter().map(|t| t.flips.len() as u64).sum();
        println!(
            "replay-check: recorded {} ({} trials, {flips} flips)",
            path.display(),
            recording.trials.len()
        );
    }
    ExitCode::SUCCESS
}

/// Every `*.recording.json` under the recordings directory, sorted.
fn default_fixtures() -> Vec<PathBuf> {
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(cta_bench::recordings_dir())
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".recording.json")))
        .collect();
    fixtures.sort();
    fixtures
}

/// Worker counts the `--executor` mode replays under: the degenerate
/// single-worker queue and an oversubscribed pool (more workers than this
/// gate has campaigns per queue), so both "no stealing possible" and
/// "stealing likely" schedules are pinned to the same bytes.
const EXECUTOR_WORKERS: [usize; 2] = [1, 3];

fn replay_fixtures(files: &[PathBuf], executor: bool) -> ExitCode {
    if files.is_empty() {
        eprintln!(
            "replay-check: no recordings under {} (run `replay-check --record` to create them)",
            cta_bench::recordings_dir().display()
        );
        return ExitCode::FAILURE;
    }
    let mut failures = 0u32;
    for path in files {
        let recording = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Recording::from_json_str(&text).map_err(|e| e.to_string()))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay-check: FAIL {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        match replay_recording(&recording, DefenseSpec::None) {
            Ok(report) => {
                println!(
                    "replay-check: ok   {} {} trials, {} flips",
                    path.display(),
                    report.trials,
                    report.flips_verified
                );
            }
            Err(e) => {
                eprintln!("replay-check: FAIL {}: {e}", path.display());
                failures += 1;
            }
        }
        if !executor {
            continue;
        }
        for workers in EXECUTOR_WORKERS {
            let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
            match exec.replay(&recording, DefenseSpec::None) {
                Ok(report) => {
                    println!(
                        "replay-check: ok   {} executor w={workers}, {} trials, {} flips",
                        path.display(),
                        report.trials,
                        report.flips_verified
                    );
                }
                Err(e) => {
                    eprintln!("replay-check: FAIL {} executor w={workers}: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("replay-check: {failures} replay failures");
        return ExitCode::FAILURE;
    }
    let how = if executor { "scoped and through the executor" } else { "scoped" };
    println!("replay-check: {} recordings replayed {how}", files.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut record = false;
    let mut executor = false;
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--record" => record = true,
            "--executor" => executor = true,
            _ => files.push(PathBuf::from(arg)),
        }
    }
    if record {
        return record_goldens();
    }
    let files = if files.is_empty() { default_fixtures() } else { files };
    replay_fixtures(&files, executor)
}
