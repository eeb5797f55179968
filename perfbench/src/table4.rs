//! `table4`: the paper's no-overhead study. One thread runs
//! `Runner::compare` over all 27 Table 4 specs, stock and CTA, on fresh
//! unprofiled 16 MiB machines, in passes. No attack, executor, profiling
//! or fingerprint is on its path.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cta_attack::RecordedAttack;
use cta_core::SystemBuilder;
use cta_telemetry::Counters;
use cta_vm::{Kernel, VmError};
use cta_workloads::{phoronix, spec2006, OverheadRow, RunMeasurement, Runner, WorkloadSpec};

use crate::report::{median, ms, record_peak_rss, record_timed, Completion, Fnv, Report, Samples};
use crate::trials::{
    attack_probe, journaled, phase_table, report_layers, scan_and_hash, spray, templating,
};
use crate::{mix, Args, DEFAULT_SEED};

/// Warm-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Digest of the first pass pinned for [`DEFAULT_SEED`].
const PINNED_DIGEST: u64 = 0x0b3d_87f7_4de0_d148;
/// Largest |mean CTA `delta_percent`| accepted: Table 4 finds no overhead.
const MAX_MEAN_DELTA_PERCENT: f64 = 1.0;
/// Specs of a pass whose machines also host the off-path attack probes.
const ATTACK_PROBES: usize = 4;

/// The 12 SPEC CPU2006 and 15 Phoronix specs of Table 4.
fn specs() -> Vec<WorkloadSpec> {
    spec2006().into_iter().chain(phoronix()).collect()
}

/// The small-host machine of Table 4: 16 MiB with a 1 MiB `ZONE_PTP`.
fn machine(seed: u64, protected: bool) -> Result<Kernel, VmError> {
    SystemBuilder::new(16 << 20).ptp_bytes(1 << 20).seed(seed).protected(protected).build()
}

/// The runner of every Table 4 compare and MMU probe of a run.
pub fn runner(seed: u64) -> Runner {
    Runner { repetitions: 1, seed: mix(seed, 0x57AB1E), ..Runner::default() }
}

fn record_run(s: &mut Samples, spec: &WorkloadSpec, m: &RunMeasurement) {
    let ops = spec.access_ops as f64;
    s.add("vm.access_ns", m.wall_ns as f64 / ops);
    s.add("vm.walks_per_access", m.walks as f64 / ops);
    s.add("vm.tlb_hit_rate", m.tlb_hit_rate);
    s.add("mem.pt_pages_per_run", m.pt_pages as f64);
}

/// Runs every Table 4 spec once on a kernel from `kernel`, sampling the
/// MMU-path metrics. On the trial workloads this is an off-path probe of
/// their machine.
pub fn mmu_probe(
    s: &mut Samples,
    mut kernel: impl FnMut() -> Result<Kernel, VmError>,
    runner: &Runner,
) -> Result<(), String> {
    for spec in specs() {
        let mut k = kernel().map_err(|e| format!("MMU probe boot error: {e}"))?;
        let m = runner.run(&mut k, &spec).map_err(|e| format!("MMU probe run error: {e}"))?;
        record_run(s, &spec, &m);
    }
    Ok(())
}

fn same_sim(a: &OverheadRow, b: &OverheadRow) -> bool {
    a.name == b.name
        && a.baseline_sim_ns.to_bits() == b.baseline_sim_ns.to_bits()
        && a.cta_sim_ns.to_bits() == b.cta_sim_ns.to_bits()
}

/// One pass over every spec: its rows (in spec order, errors dropped)
/// and a completion per compare, timed from `timed`.
fn pass(
    specs: &[WorkloadSpec],
    runner: &Runner,
    machine_seed: u64,
    timed: Instant,
    report: &mut Report,
) -> (Vec<OverheadRow>, Vec<Completion>) {
    let build = |protected| machine(machine_seed, protected).expect("Table 4 machine boots");
    let (mut rows, mut done) = (Vec::new(), Vec::new());
    for spec in specs {
        report.attempted += 1;
        let start = Instant::now();
        match runner.compare(build, spec) {
            Ok(row) => {
                done.push(Completion {
                    at_s: timed.elapsed().as_secs_f64(),
                    latency_ms: ms(start.elapsed()),
                    work: 2 * spec.access_ops * u64::from(runner.repetitions),
                });
                rows.push(row);
            }
            Err(e) => report.fail(1, format!("{}: {e}", spec.name)),
        }
    }
    (rows, done)
}

/// Fails the run for every row of `rows` whose simulated times differ
/// from the reference pass.
fn check_pass(rows: &[OverheadRow], reference: &[OverheadRow], report: &mut Report) {
    let differing = rows.iter().zip(reference).filter(|(a, b)| !same_sim(a, b)).count()
        + reference.len().abs_diff(rows.len());
    if differing > 0 {
        report.fail(differing as u64, format!("{differing} rows differ from the first pass"));
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("table4");
    let specs = specs();
    let machine_seed = mix(args.seed, 0x7AB1E4);
    let runner = runner(args.seed);

    // Warm-up passes are the set-up: allocator and caches settle before
    // timing, and the first pass is the reference every later one must
    // reproduce.
    let mut setup_s = Vec::new();
    let mut reference: Option<Vec<OverheadRow>> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (rows, _) = pass(&specs, &runner, machine_seed, start, &mut report);
        setup_s.push(start.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(rows),
            Some(reference) => check_pass(&rows, reference, &mut report),
        }
    }
    let reference = reference.unwrap_or_default();

    let (mut passes, mut done) = (0u64, Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    while passes == 0 || Instant::now() < deadline {
        let (rows, completions) = pass(&specs, &runner, machine_seed, start, &mut report);
        check_pass(&rows, &reference, &mut report);
        done.extend(completions);
        passes += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    record_timed(&mut report, &mut done);
    report.end_to_end("setup_s", median(&setup_s), "s");
    report.notes.push(format!("{passes} passes; setup samples {setup_s:?}"));

    let mean_delta = reference.iter().map(OverheadRow::delta_percent).sum::<f64>()
        / reference.len().max(1) as f64;
    let mut digest = Fnv::default();
    for row in &reference {
        digest.bytes(row.name.as_bytes());
        digest.word(row.baseline_sim_ns.to_bits());
        digest.word(row.cta_sim_ns.to_bits());
    }
    digest.word(mean_delta.to_bits());
    let digest = digest.finish();
    report.notes.push(format!(
        "digest {digest:#018x} (seed {}); mean CTA delta {mean_delta:+.4} %",
        args.seed
    ));
    if reference.len() != specs.len() {
        report.fail(0, format!("first pass produced {} of {} rows", reference.len(), specs.len()));
    }
    if mean_delta.abs() > MAX_MEAN_DELTA_PERCENT {
        report.fail(
            reference.len() as u64,
            format!("mean CTA delta {mean_delta:+.4} % exceeds ±{MAX_MEAN_DELTA_PERCENT} %"),
        );
    }
    if args.seed == DEFAULT_SEED && digest != PINNED_DIGEST {
        report.fail(
            reference.len() as u64,
            format!(
                "digest {digest:#018x} != pinned {PINNED_DIGEST:#018x} for seed {DEFAULT_SEED}"
            ),
        );
    }

    if args.trace {
        let service_ms = elapsed * 1e3 / done.len().max(1) as f64;
        // No pool: every machine of this workload boots fresh.
        report.per_layer("pool.hit_ratio", 0.0, "ratio");
        replica(&specs, &reference, machine_seed, &runner, service_ms, &mut report);
        report.per_layer("latency_samples", done.len() as f64, "count");
    }
    record_peak_rss(&mut report);
    report
}

/// The traced replica of one pass: each compare repeated through
/// `SystemBuilder::build` and `Runner::run`, asserting the simulated time
/// of the reference pass. The CTA machine then hosts the off-path probes:
/// fork, journal, contents scan and hash, flip-log drain and the two
/// attacks.
fn replica(
    specs: &[WorkloadSpec],
    reference: &[OverheadRow],
    machine_seed: u64,
    runner: &Runner,
    service_ms: f64,
    report: &mut Report,
) {
    let mut s = Samples::default();
    for (i, (spec, row)) in specs.iter().zip(reference).enumerate() {
        report.attempted += 1;
        if let Err(problem) =
            replay_compare(&mut s, spec, row, machine_seed, runner, i < ATTACK_PROBES)
        {
            report.fail(1, problem);
        }
    }
    phase_table(&s, &["phase.build_ms", "phase.run_ms"], service_ms, report);
    report_layers(&s, report);
}

fn replay_compare(
    s: &mut Samples,
    spec: &WorkloadSpec,
    row: &OverheadRow,
    machine_seed: u64,
    runner: &Runner,
    attack_probes: bool,
) -> Result<(), String> {
    let err = |e: VmError| format!("{}: replica error: {e}", spec.name);
    let op_start = Instant::now();
    let mut sim = [0u64; 2];
    let (mut build_ms, mut run_ms) = (0.0, 0.0);
    let mut cta = None;
    for (protected, sim_ns) in [false, true].into_iter().zip(&mut sim) {
        let t = Instant::now();
        let mut kernel = machine(machine_seed, protected).map_err(err)?;
        let boot_ms = ms(t.elapsed());
        s.add("core.build_ms", boot_ms);
        build_ms += boot_ms;
        let m = runner.run(&mut kernel, spec).map_err(err)?;
        run_ms += m.wall_ns as f64 / 1e6;
        record_run(s, spec, &m);
        *sim_ns = m.sim_ns;
        if protected {
            cta = Some(kernel);
        }
    }
    s.add("phase.build_ms", build_ms);
    s.add("phase.run_ms", run_ms);
    s.add("trace.op_ms", ms(op_start.elapsed()));
    if sim[0] as f64 != row.baseline_sim_ns || sim[1] as f64 != row.cta_sim_ns {
        return Err(format!("{}: replica simulated time {sim:?} differs from the pass", spec.name));
    }

    let mut kernel = cta.expect("the CTA machine ran last");
    let mut shard = Counters::new("perfbench");
    s.time("telemetry.record_counters_ms", || kernel.record_counters(&mut shard));
    black_box(&shard);
    let fork_start = Instant::now();
    drop(kernel.fork());
    s.add("vm.fork_ms", ms(fork_start.elapsed()));
    black_box(
        scan_and_hash(s, &kernel).map_err(|e| format!("{}: replica scan error: {e}", spec.name))?,
    );
    let log = s.time("dram.flip_log_drain_ms", || kernel.dram_mut().take_flip_log());
    s.add("dram.flips_per_trial", log.events.len() as f64);

    journaled(s, &mut kernel, |k| runner.run(k, spec)).map_err(err)?;

    if attack_probes {
        for attack in [RecordedAttack::Spray(spray()), RecordedAttack::Templating(templating())] {
            attack_probe(s, &kernel, &attack).map_err(err)?;
        }
    }
    Ok(())
}
