//! `trial-churn` and `module-sweep`: closed-loop campaign traffic through
//! the persistent campaign executor.
//!
//! Two clients, one tenant each, each submit a campaign, wait for its
//! result and submit the next. The executor runs with its library
//! defaults: the benchmark sets no isolation mode, row-store backend, flip
//! engine or map-generation version, so it measures whatever path the
//! library ships.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

use cta_attack::{
    AttackOutcome, CampaignExecutor, CampaignOutput, CampaignRequest, ExecutorConfig,
    RecordedAttack, RecordingSpec, SprayAttack, TemplatingAttack, TrialRecord,
};
use cta_core::SystemBuilder;
use cta_dram::DramError;
use cta_telemetry::Counters;
use cta_vm::{Kernel, VmError};

use crate::report::{median, ms, record_peak_rss, record_timed, Completion, Fnv, Report, Samples};
use crate::{mix, table4, Args, DEFAULT_SEED};

/// Closed-loop clients, one tenant and one executor worker each.
const CLIENTS: u64 = 2;
/// Fresh executors set up per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One campaign-traffic workload.
pub struct TrialShape {
    pub name: &'static str,
    row_bytes: u64,
    flip_log_capacity: usize,
    attack: fn() -> RecordedAttack,
    /// Seeds of client `client`'s campaign `index`, from the run seed.
    seeds: fn(seed: u64, client: u64, index: u64) -> Vec<u64>,
    /// Every campaign of a client repeats its first one.
    repeats: bool,
    /// Campaigns per client (from index 0) folded into the digest.
    digest_campaigns: u64,
    /// Digest pinned for [`DEFAULT_SEED`].
    pinned_digest: u64,
    /// Trials replayed by the traced replica.
    replica_trials: usize,
}

/// The spray attack of the rollback shape: 4 regions, 2 file pages, 2
/// hammer rows.
pub fn spray() -> SprayAttack {
    SprayAttack { regions: 4, file_pages: 2, max_hammer_rows: 2, ..SprayAttack::default() }
}

/// Templating over a 96-page arena with 4 attempts: about 100 k flips per
/// trial on the sweep machine.
pub fn templating() -> TemplatingAttack {
    TemplatingAttack { arena_pages: 96, max_attempts: 4, ..TemplatingAttack::default() }
}

/// Parents stay pooled: one fixed machine per tenant, so each trial costs
/// isolation, the attack and the whole-module contents fingerprint.
pub static CHURN: TrialShape = TrialShape {
    name: "trial-churn",
    row_bytes: 256,
    flip_log_capacity: 1 << 16,
    attack: || RecordedAttack::Spray(spray()),
    seeds: |seed, client, _| vec![mix(seed, 0x100 + client); 4],
    repeats: true,
    digest_campaigns: 1,
    pinned_digest: 0x7483_b4d9_57ec_f45d,
    replica_trials: 8,
};

/// Every trial boots a fresh module: boot, profiling and map generation
/// dominate, as when sweeping exploit probability across many DIMMs.
pub static SWEEP: TrialShape = TrialShape {
    name: "module-sweep",
    row_bytes: 4096,
    flip_log_capacity: 1 << 20,
    attack: || RecordedAttack::Templating(templating()),
    // Sizes cycle 1, 1, 2 whatever the seed, so the latency percentiles
    // sit inside one mode of the campaign-size mix.
    seeds: |seed, client, index| {
        let campaign = mix(seed, (client << 40) | (index << 8));
        (0..1 + u64::from(index % 3 == 2)).map(|t| mix(campaign, t)).collect()
    },
    repeats: false,
    digest_campaigns: 4,
    pinned_digest: 0xc3ce_6dbc_da24_fbf7,
    replica_trials: 6,
};

impl TrialShape {
    fn spec(&self, seeds: Vec<u64>) -> RecordingSpec {
        let mut spec = RecordingSpec::new((self.attack)(), seeds);
        spec.memory_bytes = 16 << 20;
        spec.row_bytes = self.row_bytes;
        spec.protected = true;
        spec.profile_cells = true;
        spec.flip_log_capacity = self.flip_log_capacity;
        spec
    }

    fn request(&self, seed: u64, client: u64, index: u64) -> CampaignRequest {
        CampaignRequest::new(
            format!("client-{client}"),
            self.spec((self.seeds)(seed, client, index)),
        )
    }
}

/// The same machine the executor boots for `spec` and `seed`.
fn builder(spec: &RecordingSpec, seed: u64) -> SystemBuilder {
    SystemBuilder::new(spec.memory_bytes)
        .row_bytes(spec.row_bytes)
        .cell_period(spec.cell_period_rows)
        .ptp_bytes(spec.ptp_bytes)
        .protected(spec.protected)
        .profile_cells(spec.profile_cells)
        .disturbance(spec.disturbance)
        .seed(seed)
}

fn run_attack(attack: &RecordedAttack, kernel: &mut Kernel) -> Result<AttackOutcome, VmError> {
    match attack {
        RecordedAttack::Spray(a) => a.run(kernel),
        RecordedAttack::Templating(a) => a.run(kernel),
    }
}

fn attack_phase(attack: &RecordedAttack) -> &'static str {
    match attack {
        RecordedAttack::Spray(_) => "attack.spray_ms",
        RecordedAttack::Templating(_) => "attack.templating_ms",
    }
}

/// Folds the simulated result of one trial into `digest`: outcome,
/// complete flip transcript and end clock. The contents hash and the
/// outcome's free-text phase log are left out: the first belongs to the
/// recording format, the second is prose.
fn fold_trial(digest: &mut Fnv, t: &TrialRecord) {
    let o = &t.outcome;
    for word in [
        t.seed,
        u64::from(o.secret_read),
        u64::from(o.secret_overwritten),
        u64::from(o.self_reference_found),
        o.rows_hammered,
        o.flips_induced,
        o.mappings_created,
        o.sim_time_ns,
        t.flips.len() as u64,
        t.end_ns,
    ] {
        digest.word(word);
    }
    for f in &t.flips {
        digest.word(f.row.0);
        digest.word(f.bit);
        digest.word(f.direction as u64);
        digest.word(f.time_ns);
    }
}

/// What one closed-loop client saw in the timed phase.
#[derive(Default)]
struct ClientLog {
    done: Vec<Completion>,
    trials: u64,
    failed: u64,
    problems: Vec<String>,
    /// Records of campaigns `1..digest_campaigns`, in order.
    kept: Vec<Vec<TrialRecord>>,
}

fn check_campaign(
    shape: &TrialShape,
    seeds: &[u64],
    out: &CampaignOutput,
    first: &CampaignOutput,
) -> Result<(), String> {
    let ran: Vec<u64> = out.trials.iter().map(|t| t.seed).collect();
    if ran != seeds || out.dropped_trials != 0 {
        return Err(format!("campaign {} ran seeds {ran:?}, expected {seeds:?}", out.campaign));
    }
    if shape.repeats
        && (out.trials != first.trials || out.counters.to_json() != first.counters.to_json())
    {
        return Err(format!("campaign {} differs from the tenant's first campaign", out.campaign));
    }
    Ok(())
}

fn client_loop(
    shape: &TrialShape,
    exec: &CampaignExecutor,
    seed: u64,
    client: u64,
    first: &CampaignOutput,
    timed: Instant,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut index = 1;
    while Instant::now() < deadline {
        let request = shape.request(seed, client, index);
        let seeds = request.spec.seeds.clone();
        let start = Instant::now();
        let result = exec.run(request);
        log.done.push(Completion {
            at_s: timed.elapsed().as_secs_f64(),
            latency_ms: ms(start.elapsed()),
            work: seeds.len() as u64,
        });
        log.trials += seeds.len() as u64;
        match result.map_err(|e| format!("campaign error: {e}")).and_then(|out| {
            check_campaign(shape, &seeds, &out, first)?;
            Ok(out)
        }) {
            Ok(out) if index < shape.digest_campaigns => log.kept.push(out.trials),
            Ok(_) => {}
            Err(problem) => {
                log.failed += seeds.len() as u64;
                log.problems.push(format!("client {client}: {problem}"));
            }
        }
        index += 1;
    }
    log
}

/// Sets up a fresh executor and runs each client's campaign 0 on it,
/// which boots every client's parent.
fn set_up(
    shape: &TrialShape,
    seed: u64,
) -> (CampaignExecutor, Result<Vec<CampaignOutput>, String>) {
    let exec = CampaignExecutor::new(ExecutorConfig {
        workers: CLIENTS as usize,
        parents_per_worker: 1,
        ..ExecutorConfig::default()
    });
    // One client at a time, so the idle worker steals and every worker
    // boots every tenant's parent here rather than in the timed phase.
    let firsts = (0..CLIENTS)
        .map(|c| {
            exec.run(shape.request(seed, c, 0)).map_err(|e| format!("set-up campaign error: {e}"))
        })
        .collect();
    (exec, firsts)
}

pub fn run(shape: &'static TrialShape, args: &Args) -> Report {
    let mut report = Report::new(shape.name);
    let mut setup_s = Vec::new();
    let mut ready: Option<(CampaignExecutor, Vec<CampaignOutput>)> = None;
    for _ in 0..SETUP_REPS {
        // The previous executor's workers stop before the next one starts.
        drop(ready.take());
        let start = Instant::now();
        let (exec, firsts) = set_up(shape, args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        let firsts = match firsts {
            Ok(firsts) => firsts,
            Err(problem) => {
                report.attempted += CLIENTS;
                report.fail(CLIENTS, problem);
                return report;
            }
        };
        let set_up_trials = firsts.iter().map(|o| o.trials.len() as u64).sum();
        report.attempted += set_up_trials;
        if let Some((_, earlier)) = &ready {
            if earlier.iter().zip(&firsts).any(|(a, b)| a.trials != b.trials) {
                report.fail(set_up_trials, "set-up campaigns differ between executors".into());
            }
        }
        ready = Some((exec, firsts));
    }
    let (exec, firsts) = ready.expect("at least one set-up");

    let before = exec.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (exec, first) = (&exec, &firsts[c as usize]);
                s.spawn(move || client_loop(shape, exec, args.seed, c, first, start, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = exec.stats();
    drop(exec);

    let trials: u64 = logs.iter().map(|l| l.trials).sum();
    let mut done: Vec<Completion> = logs.iter().flat_map(|l| l.done.iter().copied()).collect();
    report.attempted += trials;
    for log in &logs {
        report.failed += log.failed;
        report.problems.extend(log.problems.iter().cloned());
    }
    record_timed(&mut report, &mut done);
    report.end_to_end("setup_s", median(&setup_s), "s");
    report.notes.push(format!("{trials} trials; setup samples {setup_s:?}"));

    // Digest: each client's campaigns 0..digest_campaigns, in order.
    let mut digest = Fnv::default();
    let mut sample: Vec<&TrialRecord> = Vec::new();
    for (first, log) in firsts.iter().zip(&logs) {
        if (log.kept.len() as u64) + 1 < shape.digest_campaigns && log.failed == 0 {
            report.fail(0, format!("too few campaigns for the digest ({})", log.kept.len() + 1));
        }
        for record in first.trials.iter().chain(log.kept.iter().flatten()) {
            fold_trial(&mut digest, record);
            sample.push(record);
        }
    }
    let digest = digest.finish();
    report.notes.push(format!("digest {digest:#018x} (seed {})", args.seed));
    if args.seed == DEFAULT_SEED && digest != shape.pinned_digest {
        report.fail(
            sample.len() as u64,
            format!(
                "digest {digest:#018x} != pinned {:#018x} for seed {DEFAULT_SEED}",
                shape.pinned_digest
            ),
        );
    }

    if args.trace {
        // Untraced per-trial service time: worker-busy time per trial.
        let service_ms = CLIENTS as f64 * elapsed * 1e3 / trials.max(1) as f64;
        let completed = after.trials_completed - before.trials_completed;
        let boots = after.parent_boots - before.parent_boots;
        report.per_layer("pool.hit_ratio", 1.0 - boots as f64 / completed.max(1) as f64, "ratio");
        sample.truncate(shape.replica_trials);
        // On a thread of its own, as the executor runs trials on its
        // workers: fork and drop are allocation-bound, and the allocator
        // behaves differently on the main thread.
        thread::scope(|s| {
            s.spawn(|| replica(shape, args.seed, &sample, service_ms, &mut report))
                .join()
                .expect("replica thread panicked")
        });
        report.per_layer("latency_samples", done.len() as f64, "count");
    }
    // Read last: the replica's machines count towards the peak too.
    record_peak_rss(&mut report);
    report
}

/// The traced replica: repeats each sampled trial through the public calls
/// of every layer, timing each call, and asserts it reproduces the
/// executor's outcome, flip transcript and end clock.
fn replica(
    shape: &TrialShape,
    seed: u64,
    sample: &[&TrialRecord],
    service_ms: f64,
    report: &mut Report,
) {
    let attack = (shape.attack)();
    // The attack the workload does not run, timed on the same machine.
    let other = match attack {
        RecordedAttack::Spray(_) => RecordedAttack::Templating(templating()),
        RecordedAttack::Templating(_) => RecordedAttack::Spray(spray()),
    };
    let spec = shape.spec(Vec::new());
    let cap = shape.flip_log_capacity;
    let mut s = Samples::default();
    let mut parents: HashMap<u64, Kernel> = HashMap::new();
    let mut last = None;
    for record in sample {
        report.attempted += 1;
        let trial_start = Instant::now();
        let parent = match parents.entry(record.seed) {
            Entry::Occupied(pooled) => pooled.into_mut(),
            Entry::Vacant(slot) => {
                match s.time("core.build_ms", || builder(&spec, record.seed).build()) {
                    Ok(kernel) => slot.insert(kernel),
                    Err(e) => {
                        report.fail(1, format!("replica boot error: {e}"));
                        continue;
                    }
                }
            }
        };
        let result = replay_trial(&mut s, parent, &attack, cap, trial_start);
        let journaled = result.and_then(|(outcome, flips, end_ns)| {
            if outcome != record.outcome || flips != record.flips || end_ns != record.end_ns {
                return Err(format!(
                    "replica of seed {:#x} differs from the executor's trial",
                    record.seed
                ));
            }
            s.add("dram.flips_per_trial", flips.len() as f64);
            // The same trial again, in place under the journal.
            journaled(&mut s, parent, |k| {
                k.dram_mut().set_flip_log_capacity(cap);
                run_attack(&attack, k)
            })
            .map_err(|e| format!("journaled replica attack error: {e}"))
        });
        match journaled {
            Ok(outcome) if outcome == record.outcome => {}
            Ok(_) => {
                report.fail(1, format!("journaled replica of seed {:#x} differs", record.seed))
            }
            Err(problem) => report.fail(1, problem),
        }
        if let Err(e) = attack_probe(&mut s, parent, &other) {
            report.fail(1, format!("off-path attack error: {e}"));
        }
        if !shape.repeats {
            last = parents.remove(&record.seed);
        }
    }
    let probe_parent = last.as_ref().or_else(|| sample.first().and_then(|r| parents.get(&r.seed)));
    if let Some(parent) = probe_parent {
        if let Err(problem) = table4::mmu_probe(&mut s, || Ok(parent.fork()), &table4::runner(seed))
        {
            report.fail(1, problem);
        }
    }

    let mut on_path = vec![
        "vm.fork_ms",
        attack_phase(&attack),
        "telemetry.record_counters_ms",
        "dram.scan_ms",
        "recording.hash_ms",
        "dram.flip_log_drain_ms",
    ];
    if !shape.repeats {
        // Every trial misses the pool and boots.
        on_path.insert(0, "core.build_ms");
    }
    phase_table(&s, &on_path, service_ms, report);
    report_layers(&s, report);
}

/// Reports the per-layer medians every workload's replica samples.
pub fn report_layers(s: &Samples, report: &mut Report) {
    for name in [
        "core.build_ms",
        "vm.fork_ms",
        "vm.journal_ms",
        "dram.dirty_row_share",
        "dram.scan_ms",
        "recording.hash_ms",
        "attack.spray_ms",
        "attack.templating_ms",
        "dram.flip_log_drain_ms",
        "dram.flips_per_trial",
        "telemetry.record_counters_ms",
        "vm.access_ns",
        "vm.walks_per_access",
        "vm.tlb_hit_rate",
        "mem.pt_pages_per_run",
    ] {
        let unit = if name.ends_with("_ms") {
            "ms"
        } else if name.ends_with("_ns") {
            "ns"
        } else if name.ends_with("_share") || name.ends_with("_rate") {
            "ratio"
        } else {
            "count"
        };
        report.per_layer(name, s.median(name), unit);
    }
}

/// The contents fingerprint as the executor computes it: the whole
/// capacity streamed row by row through `peek_into`, each row hashed while
/// it is in cache. Timers around every row would cost more than the work,
/// so the fused pass is timed whole and a second, scan-only pass splits
/// it: `dram.scan_ms` is the scan-only pass, `recording.hash_ms` the rest.
pub fn scan_and_hash(s: &mut Samples, kernel: &Kernel) -> Result<u64, DramError> {
    let dram = kernel.dram();
    let capacity = dram.capacity_bytes();
    let mut row = vec![0u8; dram.geometry().row_bytes() as usize];
    let mut stream = |mut hash: Option<&mut Fnv>| -> Result<Duration, DramError> {
        let start = Instant::now();
        let mut addr = 0;
        while addr < capacity {
            let take = (row.len() as u64).min(capacity - addr) as usize;
            dram.peek_into(addr, &mut row[..take])?;
            if let Some(h) = hash.as_deref_mut() {
                h.bytes(&row[..take]);
            }
            addr += take as u64;
        }
        black_box(&row);
        Ok(start.elapsed())
    };
    let mut h = Fnv::default();
    let fused = stream(Some(&mut h))?;
    let scan = stream(None)?;
    s.add("dram.scan_ms", ms(scan));
    s.add("recording.hash_ms", ms(fused.saturating_sub(scan)));
    Ok(h.finish())
}

/// Times `attack` on a fork of `kernel`: the off-path attack probe.
pub fn attack_probe(
    s: &mut Samples,
    kernel: &Kernel,
    attack: &RecordedAttack,
) -> Result<(), VmError> {
    let mut probe = kernel.fork();
    probe.dram_mut().set_flip_log_capacity(1 << 20);
    s.time(attack_phase(attack), || run_attack(attack, &mut probe)).map(drop)
}

/// Reports `executor.overhead_ms` (untraced service time per operation
/// minus the traced on-path phases) and `trace.overhead_ratio` (traced
/// time per operation over untraced), and prints the phase table.
pub fn phase_table(s: &Samples, on_path: &[&'static str], service_ms: f64, report: &mut Report) {
    let mut traced = 0.0;
    report
        .notes
        .push(format!("phase table (median ms per operation; service {service_ms:.3} ms):"));
    for &phase in on_path {
        let ms = s.median(phase);
        traced += ms;
        report.notes.push(format!("  {phase:<30} {ms:>10.3} {:>6.1} %", 100.0 * ms / service_ms));
    }
    let residual = service_ms - traced;
    report.notes.push(format!(
        "  {:<30} {residual:>10.3} {:>6.1} %",
        "executor.overhead_ms",
        100.0 * residual / service_ms
    ));
    report.per_layer("executor.overhead_ms", residual, "ms");
    report.per_layer("trace.overhead_ratio", s.median("trace.op_ms") / service_ms, "ratio");
}

/// Repeats one trial on a fork of `parent`, as the executor's default
/// path does, timing each call. Returns the outcome, the drained flip
/// transcript and the end clock.
fn replay_trial(
    s: &mut Samples,
    parent: &Kernel,
    attack: &RecordedAttack,
    cap: usize,
    trial_start: Instant,
) -> Result<(AttackOutcome, Vec<cta_dram::FlipEvent>, u64), String> {
    let fork_start = Instant::now();
    let mut child = parent.fork();
    let fork_ms = ms(fork_start.elapsed());
    child.dram_mut().set_flip_log_capacity(cap);
    let outcome = s
        .time(attack_phase(attack), || run_attack(attack, &mut child))
        .map_err(|e| format!("replica attack error: {e}"))?;
    let mut shard = Counters::new("perfbench");
    s.time("telemetry.record_counters_ms", || child.record_counters(&mut shard));
    black_box(&shard);
    let end_ns = child.dram().now_ns();
    black_box(scan_and_hash(s, &child).map_err(|e| format!("replica scan error: {e}"))?);
    let log = s.time("dram.flip_log_drain_ms", || child.dram_mut().take_flip_log());
    let drop_start = Instant::now();
    drop(child);
    s.add("vm.fork_ms", fork_ms + ms(drop_start.elapsed()));
    s.add("trace.op_ms", ms(trial_start.elapsed()));
    if log.dropped != 0 {
        return Err(format!("replica flip log dropped {} events", log.dropped));
    }
    Ok((outcome, log.events, end_ns))
}

/// Runs `trial` in place on `kernel` under the undo journal, timing
/// `journal_begin` plus `journal_rollback` and sampling the share of rows
/// the trial dirtied.
pub fn journaled<T>(
    s: &mut Samples,
    kernel: &mut Kernel,
    trial: impl FnOnce(&mut Kernel) -> T,
) -> T {
    let begin = Instant::now();
    kernel.journal_begin();
    let begin_ms = ms(begin.elapsed());
    let out = trial(kernel);
    let dirty = kernel.dram().journal_dirty_rows() as f64;
    let rollback = Instant::now();
    kernel.journal_rollback();
    s.add("vm.journal_ms", begin_ms + ms(rollback.elapsed()));
    s.add("dram.dirty_row_share", dirty / kernel.dram().geometry().total_rows() as f64);
    out
}
