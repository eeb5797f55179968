//! Cross-crate acceptance: attack outcomes, campaign summaries, and
//! telemetry JSON are bit-identical for the same seeds whether a campaign
//! runs serially (`threads = 1`) or sharded (`threads = N`), and whether a
//! trial runs on a fresh boot or on a fork whose DRAM rows are still
//! shared copy-on-write with its parent.

use monotonic_cta::attack::{
    record_campaign, CampaignSummary, RecordedAttack, RecordingSpec, SprayAttack, TemplatingAttack,
};
use monotonic_cta::core::SystemBuilder;
use monotonic_cta::dram::DisturbanceParams;
use monotonic_cta::vm::{Kernel, VmError};

fn build(seed: u64, protected: bool) -> Result<Kernel, VmError> {
    SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(seed)
        .protected(protected)
        .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
        .build()
}

#[test]
fn spray_recordings_agree_across_shards() {
    // The scoped campaign path on the same 8 MiB, pf = 0.05 machines as
    // `build`, one trial per seed.
    let mut spec =
        RecordingSpec::new(RecordedAttack::Spray(SprayAttack::default()), (0..6).collect());
    let mut reference: Option<(String, String, CampaignSummary)> = None;
    for threads in [1usize, 4] {
        spec.threads = threads;
        let recording = record_campaign(&spec).unwrap();
        let outcomes: Vec<_> = recording.trials.iter().map(|t| &t.outcome).collect();
        let outcome_repr = format!("{outcomes:?}");
        let summary = CampaignSummary::from_outcomes(outcomes);
        let json = recording.telemetry.to_compact_string();
        match &reference {
            None => reference = Some((outcome_repr, json, summary)),
            Some((ref_outcomes, ref_json, ref_summary)) => {
                assert_eq!(&outcome_repr, ref_outcomes, "outcomes differ: threads={threads}");
                assert_eq!(&json, ref_json, "telemetry differs: threads={threads}");
                assert_eq!(&summary, ref_summary, "summary differs: threads={threads}");
            }
        }
    }
}

#[test]
fn templating_attack_agrees_on_fresh_and_forked_protected_machines() {
    let attack = TemplatingAttack::default();
    let run = |kernel: &mut Kernel| {
        let outcome = attack.run(kernel).unwrap();
        format!("{outcome:?}|{}", kernel.counters("t").to_json())
    };
    let fresh = run(&mut build(3, true).unwrap());
    // The parent stays alive, so every row the trial writes is copied away
    // from a shared buffer first.
    let parent = build(3, true).unwrap();
    let mut fork = parent.fork();
    assert!(parent.dram().rows_shared_with_forks() > 0);
    assert_eq!(run(&mut fork), fresh);
}
