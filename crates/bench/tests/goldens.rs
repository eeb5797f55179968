//! The checked-in golden recordings must pin the boot-time cell profiler:
//! at least one fixture records a CTA-protected machine whose cell types
//! came from profiling, and whose telemetry shows the profiler's decay
//! actually ran. Without it no golden covers the profiler or `ZONE_PTP`
//! placement, and a change to either could pass `replay-check` unseen.

use cta_attack::Recording;

fn fixtures() -> Vec<Recording> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(cta_bench::recordings_dir()).expect("recordings directory") {
        let path = entry.expect("directory entry").path();
        if !path.to_string_lossy().ends_with(".recording.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable fixture");
        out.push(Recording::from_json_str(&text).expect("parsable fixture"));
    }
    out
}

fn decay_flips(recording: &Recording) -> f64 {
    recording
        .telemetry
        .get("groups")
        .and_then(|g| g.get("dram"))
        .and_then(|d| d.get("decay_flips"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

#[test]
fn goldens_cover_a_protected_profiled_machine() {
    let fixtures = fixtures();
    assert!(!fixtures.is_empty(), "no golden recordings found");
    assert!(
        fixtures.iter().any(|r| r.spec.protected && r.spec.profile_cells && decay_flips(r) > 0.0),
        "no golden recording has protected && profile_cells with nonzero dram.decay_flips"
    );
}
