//! Trial-isolation differential suite: journaled in-place trials must be
//! observably identical to the scoped serial path.
//!
//! The executor runs each trial directly on a pooled parent kernel under
//! an undo journal and rolls it back. Its determinism contract says this
//! is invisible: transcripts, merged counters, summaries and contents
//! hashes must be byte-identical to [`record_campaign`], which boots a
//! fresh machine per trial.
//! These tests pin that with the scoped path as the oracle, plus the
//! cancellation path and the tenant-limits gauge a rollback must leave
//! untouched.

use std::io::Write;
use std::sync::{Arc, Mutex};

use cta_attack::recording::RECORDING_LABEL;
use cta_attack::{
    record_campaign, CampaignExecutor, CampaignRequest, CampaignSummary, ExecutorConfig,
    RecordedAttack, Recording, RecordingSpec, SprayAttack, TemplatingAttack, TenantLimits,
};
use cta_telemetry::json;
use cta_telemetry::schema::validate_executor_event;

/// Small machine, enough trials to exercise pool hits and rollback reuse.
fn small_spec(seeds: Vec<u64>) -> RecordingSpec {
    let attack =
        SprayAttack { regions: 4, file_pages: 2, max_hammer_rows: 2, flush_per_probe: false };
    let mut spec = RecordingSpec::new(RecordedAttack::Spray(attack), seeds);
    spec.memory_bytes = 2 << 20;
    spec.ptp_bytes = 256 << 10;
    spec.protected = true;
    spec.profile_cells = true;
    spec
}

fn request(tenant: &str, spec: RecordingSpec) -> CampaignRequest {
    let mut request = CampaignRequest::new(tenant, spec);
    request.label = RECORDING_LABEL.to_string();
    request
}

/// A `Write` sink the test can read back after the executor wrote to it.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl SharedSink {
    fn lines(&self) -> Vec<String> {
        let buf = self.0.lock().expect("sink poisoned");
        String::from_utf8(buf.clone())
            .expect("jsonl is utf-8")
            .lines()
            .map(str::to_string)
            .collect()
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `golden`'s spec through a fresh executor and asserts the output
/// equals the scoped recording: transcripts (flips, contents hashes,
/// clocks, outcomes), summary and merged telemetry. Returns the pool hits:
/// trials served by a parent that already ran one.
fn assert_matches_scoped(golden: &Recording, workers: usize) -> u64 {
    let exec = CampaignExecutor::new(ExecutorConfig { workers, parents_per_worker: 2 });
    let output = exec.run(request("tenant", golden.spec.clone())).expect("campaign completes");
    let what = format!("{workers} workers");
    for (got, want) in output.trials.iter().zip(&golden.trials) {
        assert_eq!(
            got.contents_hash, want.contents_hash,
            "{what}: final module contents diverged at seed {}",
            want.seed
        );
    }
    assert_eq!(output.trials, golden.trials, "{what}: trial transcripts diverged");
    let summary = CampaignSummary::from_outcomes(golden.trials.iter().map(|t| &t.outcome));
    assert_eq!(output.summary, summary, "{what}: summaries diverged");
    let merged = json::parse(&output.counters.to_json()).expect("merged telemetry parses");
    assert_eq!(merged, golden.telemetry, "{what}: merged telemetry diverged");
    let stats = exec.stats();
    assert_eq!(stats.parent_boots + stats.pool_hits, golden.trials.len() as u64);
    stats.pool_hits
}

#[test]
fn journaled_trials_match_the_scoped_path() {
    // Two trials per seed value so repeat trials are served from a
    // rolled-back parent (the case a leaky rollback would corrupt).
    let golden = record_campaign(&small_spec(vec![0, 1, 0, 1])).expect("scoped path records");
    // One worker serves every trial from its own pool: both repeats must
    // be pool hits on a parent that already ran a trial.
    assert_eq!(assert_matches_scoped(&golden, 1), 2, "rollback reuse");
    assert_matches_scoped(&golden, 2);
}

#[test]
fn journaled_trials_match_the_scoped_path_for_the_templating_attack() {
    // A second attack shape: templating leans on flip-log drains and
    // profiling, the states whose journaling is easiest to get wrong.
    let attack = TemplatingAttack { arena_pages: 48, max_attempts: 2, flush_per_probe: false };
    let mut spec = RecordingSpec::new(RecordedAttack::Templating(attack), vec![3, 4, 3]);
    spec.memory_bytes = 2 << 20;
    spec.ptp_bytes = 256 << 10;
    spec.profile_cells = true;
    let golden = record_campaign(&spec).expect("scoped path records");
    assert_eq!(assert_matches_scoped(&golden, 1), 1);
}

#[test]
fn tenant_limit_gauge_matches_freshly_booted_parents() {
    // The model-cache byte budget attaches to parents at boot; rollback
    // restores parents byte-identically, so after a campaign the published
    // gauge must equal that of parents that never ran a trial.
    let spec = small_spec(vec![7, 8]);
    let budget = Some(1 << 20);
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 2 });
    exec.set_tenant_limits(
        "tenant",
        TenantLimits { max_parents_per_worker: Some(2), model_cache_bytes: budget },
    );
    let output = exec.run(request("tenant", spec.clone())).expect("completes");
    assert_eq!(output.summary.trials, 2);

    let fresh: u64 = spec
        .seeds
        .iter()
        .map(|&seed| {
            let mut parent =
                spec.builder(seed, cta_core::DefenseSpec::None).build().expect("boots");
            parent.dram_mut().set_model_cache_bytes(budget);
            parent.dram().model_cache_bytes() as u64
        })
        .sum();
    let gauge = exec.stats().pool_model_cache_bytes;
    assert!(gauge > 0, "resident parents publish their footprint");
    assert_eq!(gauge, fresh, "a trial leaked into the pool gauge");
}

#[test]
fn cancel_drops_queued_trials_and_emits_a_cancelled_event() {
    // One worker: campaign A's trials occupy the queue head, so campaign
    // B's trials sit queued when the cancel lands.
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 2 });
    let sink = SharedSink::default();
    exec.set_jsonl_sink(sink.clone());

    let first = exec.submit(request("tenant", small_spec(vec![0, 1, 2, 3])));
    let doomed_seeds = 6u64;
    let doomed = exec.submit(request("tenant", small_spec((10..10 + doomed_seeds).collect())));
    let (first, doomed) = (first.expect("submits"), doomed.expect("submits"));

    let dropped = exec.cancel(doomed.id());
    assert!(dropped > 0, "queued trials were dropped");
    // Cancelling again (or cancelling an unknown id) is a no-op.
    assert_eq!(exec.cancel(9999), 0);

    let kept = first.wait().expect("uncancelled campaign completes");
    assert_eq!(kept.summary.trials, 4);
    assert_eq!(kept.dropped_trials, 0);

    let output = doomed.wait().expect("cancelled campaign still merges");
    assert_eq!(output.dropped_trials, dropped as u64);
    assert_eq!(output.summary.trials as u64 + output.dropped_trials, doomed_seeds);
    assert_eq!(output.trials.len(), output.summary.trials);
    assert_eq!(output.trial_latencies_ns.len(), output.summary.trials);

    // The stream carries the cancellation and every line passes the
    // executor-event schema (campaign and cancelled shapes both).
    let lines = sink.lines();
    let mut saw_cancelled = false;
    for line in &lines {
        let doc = json::parse(line).expect("jsonl line parses");
        assert_eq!(validate_executor_event(&doc), vec![], "line failed schema: {line}");
        if doc.get("event") == Some(&json::JsonValue::String("cancelled".to_string())) {
            saw_cancelled = true;
            assert_eq!(
                doc.get("dropped_trials"),
                Some(&json::JsonValue::Number(dropped as f64)),
                "cancelled event counts the dropped trials"
            );
        }
    }
    assert!(saw_cancelled, "a cancelled event was emitted: {lines:?}");
}
