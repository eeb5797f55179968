//! `bench-baseline` — the machine-readable performance record.
//!
//! Runs the repo's headline hot paths — PTE-walk latency (cold, TLB-hit,
//! and PSC-warm), DRAM `read_u64` throughput, Monte Carlo samples/sec
//! (serial and sharded), batched translation sweeps, and a Table 4
//! harness smoke — plus allocator throughput, and merges
//! the results into `BENCH_baseline.json` at the repo root under a
//! `--label` key. Re-running with a different label preserves the other
//! labels' sections, so before/after trajectories accumulate in one file
//! (see EXPERIMENTS.md for the field reference).
//!
//! Usage:
//!
//! ```text
//! bench-baseline [--label <name>] [--quick] [--out <path>]
//! ```
//!
//! `--quick` shrinks every workload so the whole run finishes well under
//! 60 s — the smoke-test mode wired into `scripts/check.sh`.

use std::time::Instant;

use cta_analysis::{
    monte_carlo_p_exploitable, monte_carlo_p_exploitable_sharded, FlipStats, Restriction,
};
use cta_attack::{
    record_campaign, CampaignExecutor, CampaignRequest, ExecutorConfig, RecordedAttack,
    RecordingSpec, SprayAttack, TenantLimits,
};
use cta_bench::{emit_telemetry, header, kv};
use cta_core::SystemBuilder;
use cta_dram::{DisturbanceParams, DramConfig, DramModule};
use cta_mem::PAGE_SIZE;
use cta_telemetry::Counters;
use cta_vm::{Access, Kernel, VirtAddr};
use cta_workloads::{record_overhead_rows, spec2006, Runner};

const MC_SEED: u64 = 7;
const MC_N: u32 = 8;

struct Options {
    label: String,
    quick: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Options {
    let mut label = "run".to_string();
    let mut quick = false;
    let mut out = default_out_path();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => label = args.next().expect("--label needs a value"),
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a value").into(),
            "--help" | "-h" => {
                println!("usage: bench-baseline [--label <name>] [--quick] [--out <path>]");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    Options { label, quick, out }
}

/// `BENCH_baseline.json` lives at the repo root, two levels above this
/// crate's manifest.
fn default_out_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_baseline.json")
}

fn flip_free_machine(protected: bool) -> Kernel {
    // Flip-free module: the walk benchmark drives millions of walks and
    // must not RowHammer its own page tables (same rationale as
    // `benches/vm.rs`); timing paths are identical.
    SystemBuilder::new(16 << 20)
        .ptp_bytes(1 << 20)
        .seed(3)
        .protected(protected)
        .disturbance(DisturbanceParams { pf: 0.0, ..DisturbanceParams::default() })
        .build()
        .expect("machine boots")
}

/// Times `f` over `iters` calls and returns mean ns/call.
fn time_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Like [`time_per_iter`], but runs `warmup` untimed calls first. The
/// nanosecond-scale walk benches (`pte_walk_*`, `translate_tlb_hit_*`)
/// need this: their first iterations pay one-off costs — lazy row
/// materialization, cache and branch-predictor fill, CPU frequency
/// ramp-up — large enough relative to a ~100 ns steady-state walk to
/// swing the recorded mean and trip the drift watch between otherwise
/// identical runs.
fn time_per_iter_warm(warmup: u64, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    time_per_iter(iters, f)
}

fn bench_walk_latency(quick: bool, metrics: &mut Vec<(String, f64)>) {
    let iters = if quick { 20_000 } else { 200_000 };
    for protected in [false, true] {
        let label = if protected { "cta" } else { "stock" };
        let mut k = flip_free_machine(protected);
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x4000_0000);
        k.mmap_anonymous(pid, va, 8 * PAGE_SIZE, true).unwrap();

        let cold = time_per_iter_warm(iters / 10, iters, || {
            k.flush_tlb();
            std::hint::black_box(k.translate(pid, va, Access::user_read()).unwrap());
        });
        metrics.push((format!("pte_walk_cold_{label}_ns"), cold));

        let hot = time_per_iter_warm(iters / 10, iters, || {
            std::hint::black_box(k.translate(pid, va, Access::user_read()).unwrap());
        });
        metrics.push((format!("translate_tlb_hit_{label}_ns"), hot));
    }
}

fn bench_dram_throughput(quick: bool, metrics: &mut Vec<(String, f64)>) {
    let iters = if quick { 200_000 } else { 2_000_000 };
    let mut m = DramModule::new(DramConfig::small_test());
    m.fill(0, 64 * 1024, 0xAB).unwrap();

    let mut addr = 0u64;
    let per_read = time_per_iter(iters, || {
        std::hint::black_box(m.read_u64(addr % 4000).unwrap());
        addr += 8;
    });
    metrics.push(("dram_read_u64_ops_per_sec".into(), 1e9 / per_read));

    let mut addr = 0u64;
    let per_write = time_per_iter(iters, || {
        m.write_u64(addr % 200_000, 0xDEAD_BEEF).unwrap();
        addr += 8;
    });
    metrics.push(("dram_write_u64_ops_per_sec".into(), 1e9 / per_write));

    let page_iters = iters / 50;
    let mut addr = 2048u64;
    let per_page = time_per_iter(page_iters, || {
        std::hint::black_box(m.read(addr % 60_000, 4096).unwrap());
        addr += 4096;
    });
    metrics.push(("dram_read_page_cross_row_mb_per_sec".into(), 4096.0 * 1e9 / per_page / 1e6));
}

fn bench_alloc_throughput(quick: bool, metrics: &mut Vec<(String, f64)>) {
    use cta_dram::{AddressMapping, CellLayout, CellType, CellTypeMap, DramGeometry};
    use cta_mem::{GfpFlags, MemoryMap, PtpLayout, PtpSpec, ZonedAllocator};
    let iters = if quick { 100_000 } else { 1_000_000 };
    let geometry = DramGeometry::new(64 * 1024, 1024, 1, AddressMapping::RowLinear);
    let cells = CellTypeMap::from_layout(
        &geometry,
        CellLayout::Alternating { period_rows: 64, first: CellType::True },
    );
    let layout =
        PtpLayout::build(&cells, 64 << 20, &PtpSpec::paper_default().with_size(4 << 20)).unwrap();
    let mut alloc = ZonedAllocator::new(MemoryMap::x86_64(64 << 20).with_cta(layout));
    let per_cycle = time_per_iter(iters, || {
        let p = alloc.alloc_pages(GfpFlags::PTP, 0).unwrap();
        alloc.free_pages(p, 0).unwrap();
    });
    metrics.push(("alloc_free_ptp_page_pairs_per_sec".into(), 1e9 / per_cycle));
}

fn bench_monte_carlo(quick: bool, metrics: &mut Vec<(String, f64)>) {
    let stats = FlipStats { pf: 1e-3, p0_to_1: 0.3, p1_to_0: 0.7 };
    let samples: u64 = if quick { 400_000 } else { 4_000_000 };

    let start = Instant::now();
    let serial = monte_carlo_p_exploitable(MC_N, &stats, Restriction::None, samples, MC_SEED);
    let serial_rate = samples as f64 / start.elapsed().as_secs_f64();
    metrics.push(("mc_serial_samples_per_sec".into(), serial_rate));
    metrics.push(("mc_serial_hits".into(), serial.hits as f64));

    // One shard reproduces the serial stream bit for bit — record the
    // identity so the baseline file itself witnesses the contract.
    let one =
        monte_carlo_p_exploitable_sharded(MC_N, &stats, Restriction::None, samples, MC_SEED, 1);
    assert_eq!(one.hits, serial.hits, "shards=1 must be bit-identical to serial");
    metrics.push(("mc_shards1_hits".into(), one.hits as f64));

    // Sharded across the host's cores (≥ 2 shards so the parallel path is
    // exercised even on a single-core runner).
    let shards = cta_parallel::worker_count(0).max(2) as u32;
    let start = Instant::now();
    let sharded = monte_carlo_p_exploitable_sharded(
        MC_N,
        &stats,
        Restriction::None,
        samples,
        MC_SEED,
        shards,
    );
    let sharded_rate = samples as f64 / start.elapsed().as_secs_f64();
    metrics.push(("mc_sharded_shards".into(), shards as f64));
    metrics.push(("mc_sharded_samples_per_sec".into(), sharded_rate));
    metrics.push(("mc_sharded_hits".into(), sharded.hits as f64));
}

fn bench_table4_smoke(quick: bool, metrics: &mut Vec<(String, f64)>, tel: &mut Counters) {
    let specs = spec2006();
    let smoke: Vec<_> = specs.iter().take(if quick { 2 } else { 4 }).collect();
    let runner = Runner { repetitions: 2, seed: 0x1234 };
    let machine = |protected: bool| {
        SystemBuilder::new(16 << 20)
            .ptp_bytes(1 << 20)
            .seed(0x7AB1E4)
            .protected(protected)
            .build()
            .expect("machine boots")
    };

    let start = Instant::now();
    let mut sim_delta_sum = 0.0;
    let mut serial_rows = Vec::new();
    for spec in &smoke {
        let row = runner.compare(machine, spec).expect("workload runs");
        sim_delta_sum += row.delta_percent();
        serial_rows.push(row);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    metrics.push(("table4_smoke_serial_wall_ms".into(), wall_ms));
    metrics.push(("table4_smoke_mean_sim_delta_pct".into(), sim_delta_sum / smoke.len() as f64));

    // The same cells through the parallel harness (threads = cores, min 2
    // so the worker path runs even single-core); simulated results must be
    // bit-identical to the serial loop.
    let owned: Vec<_> = smoke.iter().map(|s| **s).collect();
    let threads = cta_parallel::worker_count(0).max(2);
    let start = Instant::now();
    let parallel_rows = runner.compare_many(machine, &owned, threads).expect("workloads run");
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    for (serial, parallel) in serial_rows.iter().zip(&parallel_rows) {
        assert_eq!(
            serial.baseline_sim_ns.to_bits(),
            parallel.baseline_sim_ns.to_bits(),
            "parallel Table 4 must be bit-identical to serial"
        );
        assert_eq!(serial.cta_sim_ns.to_bits(), parallel.cta_sim_ns.to_bits());
    }
    metrics.push(("table4_smoke_parallel_wall_ms".into(), parallel_ms));
    metrics.push(("table4_smoke_parallel_threads".into(), threads as f64));
    record_overhead_rows(tel, "table4_smoke", &serial_rows);
}

/// The boot-once/fork-per-trial campaign against reboot-per-trial. Fork
/// and reboot results are asserted identical before their rates are
/// recorded, so the speedup the baseline pins is a speedup between
/// provably equivalent computations.
fn bench_fork_campaign(quick: bool, metrics: &mut Vec<(String, f64)>) {
    let trials = if quick { 8 } else { 32 };
    let attack = SprayAttack::default();
    // Same module (constant seed) every trial, identical by determinism.
    // Boot is the realistic profiled-CTA boot — the profiler writes and
    // decays every row, which is exactly the cost forking amortizes away.
    let build = || {
        SystemBuilder::new(8 << 20)
            .ptp_bytes(512 * 1024)
            .seed(11)
            .protected(true)
            .profile_cells(true)
            .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
            .build()
    };
    let start = Instant::now();
    let rebooted: Vec<_> = (0..trials)
        .map(|_| attack.run(&mut build().expect("trial boots")).expect("trial runs"))
        .collect();
    let reboot_rate = trials as f64 / start.elapsed().as_secs_f64();

    let parent = build().expect("parent boots");
    let start = Instant::now();
    let forked: Vec<_> =
        (0..trials).map(|_| attack.run(&mut parent.fork()).expect("trial runs")).collect();
    let fork_rate = trials as f64 / start.elapsed().as_secs_f64();
    assert_eq!(forked, rebooted, "fork-per-trial must equal reboot-per-trial");

    metrics.push(("campaign_reboot_trials_per_sec".into(), reboot_rate));
    metrics.push(("campaign_fork_trials_per_sec".into(), fork_rate));
    metrics.push(("campaign_fork_speedup".into(), fork_rate / reboot_rate));
}

/// The disturbance/decay inner loops on a dense vulnerability map
/// (`pf = 0.4`, ~13k vulnerable bits per 4 KiB row — the shape where
/// disturbance dominates a hammering campaign). Three throughputs:
///
/// * `disturb_ops_per_sec` — steady-state disturbs of saturated rows (the
///   spray-campaign hot loop: almost no bit fires, and the bitplane kernel
///   visits only the compiled mask words);
/// * `hammer_flips_per_sec` — flips delivered when victims are recharged
///   before every burst (the templating hot loop);
/// * `decay_sweep_mb_per_sec` — full-window retention decay across every
///   materialized row after a refresh outage.
fn bench_flip_model(quick: bool, metrics: &mut Vec<(String, f64)>) {
    use cta_dram::{AddressMapping, CellLayout, CellType, DramGeometry, RowId};
    let rows: u64 = 256;
    let config = DramConfig {
        geometry: DramGeometry::new(4096, rows, 1, AddressMapping::RowLinear),
        layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
        disturbance: DisturbanceParams { pf: 0.4, ..DisturbanceParams::default() },
        ..DramConfig::small_test()
    };
    let disturb_iters = if quick { 1_500 } else { 15_000 };
    let decay_sweeps = if quick { 3 } else { 10 };

    let mut m = DramModule::new(config);
    let capacity = m.capacity_bytes();
    m.fill(0, capacity as usize, 0x5A).unwrap();
    let victim = |i: u64| RowId(1 + i % (rows - 2));

    // Warm-up pass saturates every row and compiles every bit map and
    // plane before the clock starts.
    for i in 0..rows {
        m.hammer_to_threshold(victim(i)).unwrap();
    }

    let before = m.stats().disturbances;
    let start = Instant::now();
    for i in 0..disturb_iters {
        m.hammer_to_threshold(victim(i)).unwrap();
    }
    let disturb_rate = (m.stats().disturbances - before) as f64 / start.elapsed().as_secs_f64();
    metrics.push(("disturb_ops_per_sec".into(), disturb_rate));

    // Recharge the victim band before each burst so flips keep firing.
    let row_bytes = m.geometry().row_bytes();
    let flips_before = m.stats().total_flips();
    let start = Instant::now();
    for i in 0..disturb_iters / 8 {
        let v = victim(i * 3);
        m.fill((v.0 - 1) * row_bytes, 3 * row_bytes as usize, 0x5A).unwrap();
        m.hammer_to_threshold(v).unwrap();
    }
    let flips_rate =
        (m.stats().total_flips() - flips_before) as f64 / start.elapsed().as_secs_f64();
    metrics.push(("hammer_flips_per_sec".into(), flips_rate));

    // Full-window outages: every materialized row decays end to end.
    let outage = m.config().retention.max_ns + 1;
    let start = Instant::now();
    for _ in 0..decay_sweeps {
        m.disable_refresh();
        m.advance(outage);
        m.enable_refresh();
    }
    let decay_rate = decay_sweeps as f64 * capacity as f64 / start.elapsed().as_secs_f64() / 1e6;
    metrics.push(("decay_sweep_mb_per_sec".into(), decay_rate));
}

/// The wordwise generation data plane (PR 6): chunked span fill, dense
/// counter-mode vulnerability-map compilation, dense-map boot, and
/// indexed partial-window decay, on `MapGen::Counter` maps at
/// templating-stress density (`pf = 0.4`, ~13k vulnerable bits per 4 KiB
/// row):
///
/// * `dram_fill_mb_per_sec` — whole-capacity fills through the chunked
///   span path (`memset` per row span);
/// * `vuln_map_rows_per_sec` — first-build map compilation throughput
///   (the block generator's one-mix-per-cell batched Bernoulli);
/// * `boot_dense_ms` — a cold boot of the dense module: construct, fill
///   every row, compile every map, then take one partial-window refresh
///   outage (first-build decay masks through the sorted retention index);
/// * `partial_decay_mb_per_sec` — steady-state partial-window outages at
///   distinct elapsed buckets: every sweep rebuilds its masks by binary-
///   searching the per-row index built once.
fn bench_datapath(quick: bool, metrics: &mut Vec<(String, f64)>) {
    use cta_dram::{AddressMapping, CellLayout, CellType, DramGeometry, MapGen, RowId};
    // 128 rows × 256 KiB of index stays inside the 64 MiB index budget, so
    // the steady-state decay sweeps measure index reuse, not thrash.
    let rows: u64 = if quick { 64 } else { 128 };
    let config = DramConfig {
        geometry: DramGeometry::new(4096, rows, 1, AddressMapping::RowLinear),
        layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
        disturbance: DisturbanceParams { pf: 0.4, ..DisturbanceParams::default() },
        ..DramConfig::small_test()
    }
    .with_map_gen(MapGen::Counter);

    // Chunked whole-capacity fills (span path).
    let mut m = DramModule::new(DramConfig::small_test());
    let cap = m.capacity_bytes() as usize;
    let fills = if quick { 400 } else { 4_000 };
    let start = Instant::now();
    for i in 0..fills {
        m.fill(0, cap, (i & 0xFF) as u8).unwrap();
    }
    let fill_rate = fills as f64 * cap as f64 / start.elapsed().as_secs_f64() / 1e6;
    metrics.push(("dram_fill_mb_per_sec".into(), fill_rate));

    // First-build map compilation: fresh module per pass, so every
    // `vulnerable_bits` call derives its row from scratch.
    let passes = if quick { 2 } else { 8 };
    let start = Instant::now();
    for _ in 0..passes {
        let mut m = DramModule::new(config.clone());
        for row in 0..rows {
            std::hint::black_box(m.vulnerable_bits(RowId(row)).unwrap());
        }
    }
    let map_rate = (passes * rows) as f64 / start.elapsed().as_secs_f64();
    metrics.push(("vuln_map_rows_per_sec".into(), map_rate));

    // Dense boot: construct, fill, compile every map, one partial-window
    // outage.
    let start = Instant::now();
    let mut m = DramModule::new(config);
    let capacity = m.capacity_bytes();
    m.fill(0, capacity as usize, 0xFF).unwrap();
    for row in 0..rows {
        std::hint::black_box(m.vulnerable_bits(RowId(row)).unwrap());
    }
    let p = m.config().retention;
    m.disable_refresh();
    m.advance(p.min_ns + (p.max_ns - p.min_ns) / 2);
    m.enable_refresh();
    let boot_ms = start.elapsed().as_secs_f64() * 1e3;
    metrics.push(("boot_dense_ms".into(), boot_ms));

    // Steady-state partial-window outages, each at a fresh elapsed bucket
    // so the expired-mask memo never hits.
    let sweeps = if quick { 4 } else { 16 };
    let start = Instant::now();
    for i in 0..sweeps {
        m.disable_refresh();
        m.advance(p.min_ns + (p.max_ns - p.min_ns) / 4 + i);
        m.enable_refresh();
    }
    let decay_rate = sweeps as f64 * capacity as f64 / start.elapsed().as_secs_f64() / 1e6;
    metrics.push(("partial_decay_mb_per_sec".into(), decay_rate));
}

/// The persistent campaign service under a saturating multi-tenant queue
/// (the `service_*` metrics the `service` baseline label records). Every
/// campaign is first recorded through the scoped boot-per-trial path —
/// that wall clock is the reboot baseline, and the recording is the
/// golden the executor's output is asserted byte-identical against
/// (trial transcripts and merged telemetry) before any rate is recorded.
/// Then all campaigns are submitted to a [`CampaignExecutor`] up front —
/// tenants interleaved, queue saturated from the first trial — and the
/// sustained rate, per-trial p50/p99 latency (submit → completion, so
/// queueing counts), and pool gauges are measured over the full drain.
///
/// Campaign specs are boot-heavy on purpose (CTA protection + boot-time
/// cell profiling): that is the cost the parent pool pays once per
/// (tenant, machine, seed) and every fork amortizes, and it is core-count
/// independent — the recorded speedup holds on a single-core runner.
fn bench_service(quick: bool, metrics: &mut Vec<(String, f64)>, tel: &mut Counters) {
    use cta_telemetry::json;

    let tenants: &[(&str, u64)] = if quick {
        &[("alpha", 11), ("bravo", 23)]
    } else {
        &[("alpha", 11), ("bravo", 23), ("charlie", 47)]
    };
    let campaigns_per_tenant = if quick { 2 } else { 3 };
    let trials_per_campaign = if quick { 4 } else { 12 };
    // The default spray attack, as in `bench_fork_campaign`: its trial
    // cost is well under the profiled boot it amortizes, so pool
    // efficiency (not attack choice) dominates the recorded speedup.
    let attack = SprayAttack::default();
    let spec_for = |seed: u64| {
        // Same machine, same seed for every trial of a tenant: the
        // executor boots one parent per (worker, tenant) and forks the
        // rest, while the reboot baseline pays the profiled boot per
        // trial.
        let mut spec =
            RecordingSpec::new(RecordedAttack::Spray(attack), vec![seed; trials_per_campaign]);
        // 16 MiB doubles the profiled-boot cost the pool amortizes while
        // the per-trial fork stays O(changed rows); the recorded speedup
        // then reflects pool efficiency rather than a borderline
        // boot-to-trial ratio.
        spec.memory_bytes = 16 << 20;
        spec.protected = true;
        spec.profile_cells = true;
        // The default spray attack lands more flips per trial than the
        // default ring capacity; transcripts must stay lossless.
        spec.flip_log_capacity = 1 << 16;
        spec
    };

    // Reboot baseline + goldens: the scoped path boots a machine per
    // trial. One recording per tenant suffices as golden (campaigns
    // within a tenant are identical); the baseline clock still pays for
    // every campaign.
    let total_trials = tenants.len() * campaigns_per_tenant * trials_per_campaign;
    let start = Instant::now();
    let mut goldens = Vec::new();
    for &(_, seed) in tenants {
        let mut recording = None;
        for _ in 0..campaigns_per_tenant {
            recording = Some(record_campaign(&spec_for(seed)).expect("campaign records"));
        }
        goldens.push(recording.expect("at least one campaign per tenant"));
    }
    let reboot_rate = total_trials as f64 / start.elapsed().as_secs_f64();

    // The service: 2 fixed workers (work stealing is exercised even on a
    // single-core host), campaigns from all tenants submitted before any
    // is waited on.
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 2, parents_per_worker: 2 });
    exec.set_tenant_limits(
        tenants[0].0,
        TenantLimits { max_parents_per_worker: Some(2), model_cache_bytes: Some(64 << 20) },
    );
    let events_dir = cta_bench::telemetry_dir();
    std::fs::create_dir_all(&events_dir).expect("telemetry dir is creatable");
    let events_path = events_dir.join("executor-events.jsonl");
    exec.set_jsonl_sink(std::fs::File::create(&events_path).expect("events sink is writable"));

    let start = Instant::now();
    let mut tickets = Vec::new();
    for round in 0..campaigns_per_tenant {
        for &(tenant, seed) in tenants {
            let mut request = CampaignRequest::new(tenant, spec_for(seed));
            // The scoped path labels merged telemetry RECORDING_LABEL;
            // match it so the byte-compare below covers the label too.
            request.label = cta_attack::recording::RECORDING_LABEL.to_string();
            tickets.push((round, exec.submit(request).expect("campaign submits")));
        }
    }
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut outputs = Vec::new();
    for (_, ticket) in tickets {
        let output = ticket.wait().expect("campaign completes");
        latencies_ns.extend_from_slice(&output.trial_latencies_ns);
        outputs.push(output);
    }
    let service_rate = total_trials as f64 / start.elapsed().as_secs_f64();

    // Byte-identity with the scoped path is verified after the clock
    // stops: it gates the recorded rate but is not service work (and on a
    // single-core host it would steal cycles from the drain it times).
    for (i, output) in outputs.iter().enumerate() {
        let golden = &goldens[i % tenants.len()];
        assert_eq!(
            output.trials, golden.trials,
            "executor transcripts must be byte-identical to the scoped path"
        );
        let merged = json::parse(&output.counters.to_json()).expect("merged telemetry parses");
        assert_eq!(
            merged, golden.telemetry,
            "executor merged telemetry must be byte-identical to the scoped path"
        );
    }

    latencies_ns.sort_unstable();
    let pct = |p: usize| {
        let rank = (latencies_ns.len() * p).div_ceil(100).max(1);
        latencies_ns[rank.min(latencies_ns.len()) - 1] as f64 / 1e6
    };
    let stats = exec.stats();
    exec.record_counters(tel);

    metrics.push(("service_tenants".into(), tenants.len() as f64));
    metrics.push(("service_campaigns".into(), (tenants.len() * campaigns_per_tenant) as f64));
    metrics.push(("service_trials".into(), total_trials as f64));
    metrics.push(("service_workers".into(), stats.workers as f64));
    metrics.push(("service_reboot_trials_per_sec".into(), reboot_rate));
    metrics.push(("service_trials_per_sec".into(), service_rate));
    metrics.push(("service_speedup_vs_reboot".into(), service_rate / reboot_rate));
    metrics.push(("service_p50_trial_latency_ms".into(), pct(50)));
    metrics.push(("service_p99_trial_latency_ms".into(), pct(99)));
    metrics.push(("service_parent_boots".into(), stats.parent_boots as f64));
    metrics.push(("service_pool_hits".into(), stats.pool_hits as f64));
    metrics.push(("service_steals".into(), stats.steals as f64));
    kv("service events", events_path.display());
}

/// Journaled in-place trial throughput (the `rollback` baseline label's
/// `rollback_*` metrics). A persistent executor drains a campaign queue
/// whose every trial uses one seed, and every output is asserted
/// byte-identical to the scoped path (a one-trial [`record_campaign`] of
/// that seed) before the rate is recorded, so the rate pins a provably
/// correct computation.
///
/// The campaign shape is boot-heavy with a small per-trial working set,
/// deliberately: boot-time cell profiling materializes every row, so even
/// a copy-on-write fork pays one refcount bump per row, while the narrow
/// spray trial dirties only a handful of rows that the journal captures
/// lazily. Fork-per-trial throughput stays recorded by the
/// `campaign_fork_*` metrics.
///
/// The full run repeats the drain on a 128 MiB machine
/// (`rollback_trials_per_sec_128mib`): the same trial on 8x the rows,
/// the test that a trial costs O(rows it touches), not O(capacity).
fn bench_rollback(quick: bool, metrics: &mut Vec<(String, f64)>) {
    // Warm trials take well under a millisecond, so the full run drains
    // enough of them for the timed window to outlast scheduler noise.
    let trials = if quick { 12 } else { 200 };
    let campaigns = if quick { 2 } else { 3 };
    let (rate, mut ns) = rollback_drain(16 << 20, trials, campaigns);
    ns.sort_unstable();
    let pct = |p: usize| {
        let rank = (ns.len() * p).div_ceil(100).max(1);
        ns[rank.min(ns.len()) - 1] as f64 / 1e6
    };
    metrics.push(("rollback_trials".into(), (campaigns * trials) as f64));
    metrics.push(("rollback_trials_per_sec".into(), rate));
    metrics.push(("rollback_p50_trial_latency_ms".into(), pct(50)));
    metrics.push(("rollback_p99_trial_latency_ms".into(), pct(99)));
    if !quick {
        let (rate_128, _) = rollback_drain(128 << 20, trials, campaigns);
        metrics.push(("rollback_trials_per_sec_128mib".into(), rate_128));
    }
}

/// Drains `campaigns` campaigns of `trials` identical spray trials on one
/// pooled `memory_bytes` parent and returns the trial rate and the
/// per-trial latencies, after asserting every trial equals the scoped
/// path. An untimed one-trial campaign first boots the parent and pays
/// its one full contents digest, so the clock covers warm trials only.
fn rollback_drain(memory_bytes: u64, trials: usize, campaigns: usize) -> (f64, Vec<u64>) {
    let attack =
        SprayAttack { regions: 4, file_pages: 2, max_hammer_rows: 2, flush_per_probe: false };
    let spec = |seeds: Vec<u64>| {
        let mut spec = RecordingSpec::new(RecordedAttack::Spray(attack), seeds);
        spec.memory_bytes = memory_bytes;
        // Narrow 256-byte rows: 64k materialized rows per 16 MiB, so
        // whole-module costs are fully represented, while the journal's
        // cost still tracks only the rows a trial dirties.
        spec.row_bytes = 256;
        spec.protected = true;
        spec.profile_cells = true;
        spec.flip_log_capacity = 1 << 16;
        spec
    };
    // Constant seed: the pool boots one parent and serves every trial
    // from it, so the measured cost is the trial plus its rollback.
    const SEED: u64 = 11;
    let submit = |exec: &CampaignExecutor, seeds: Vec<u64>| {
        exec.submit(CampaignRequest::new("bench", spec(seeds))).expect("campaign submits")
    };

    // One worker: a serial drain where per-trial cost is the only
    // variable (bench_service already pins the multi-worker schedule).
    let exec = CampaignExecutor::new(ExecutorConfig { workers: 1, parents_per_worker: 2 });
    let warm = submit(&exec, vec![SEED]).wait().expect("warm-up campaign completes");
    let start = Instant::now();
    let tickets: Vec<_> = (0..campaigns).map(|_| submit(&exec, vec![SEED; trials])).collect();
    let outputs: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("campaign completes")).collect();
    let rate = (campaigns * trials) as f64 / start.elapsed().as_secs_f64();
    drop(exec);

    let oracle = record_campaign(&spec(vec![SEED])).expect("scoped path records");
    assert_eq!(warm.trials, oracle.trials, "journaled trial must equal the scoped path");
    for output in &outputs {
        for record in &output.trials {
            assert_eq!(record, &oracle.trials[0], "journaled trial must equal the scoped path");
        }
        assert_eq!(
            output.counters.to_json(),
            outputs[0].counters.to_json(),
            "merged telemetry must be equal across identical campaigns"
        );
    }
    let ns = outputs.iter().flat_map(|o| o.trial_latencies_ns.iter().copied()).collect();
    (rate, ns)
}

/// Warm-walk and batched-translation hot paths for the paging-structure
/// caches. A 128-page sweep inside one 2 MiB region overflows the 64-entry
/// TLB — every set cycles through 8 tags, so every translate misses — while
/// every walk shares one PDE, so a warm PSC resumes at the PT level: one
/// DRAM read per walk instead of four. `pte_walk_warm_psc_ns` vs
/// `pte_walk_warm_nopsc_ns` isolates that saving; the batch metrics compare
/// [`Kernel::translate_batch`] against a per-call loop over the same sweep.
fn bench_psc(quick: bool, metrics: &mut Vec<(String, f64)>, tel: &mut Counters) {
    let sweeps = if quick { 1_000 } else { 10_000 };
    let pages: u64 = 128;
    let machine = |entries: usize| {
        SystemBuilder::new(16 << 20)
            .ptp_bytes(1 << 20)
            .seed(3)
            .disturbance(DisturbanceParams { pf: 0.0, ..DisturbanceParams::default() })
            .psc_entries(entries)
            .build()
            .expect("machine boots")
    };
    for (name, entries) in [("psc", 16usize), ("nopsc", 0)] {
        let mut k = machine(entries);
        let pid = k.create_process(false).unwrap();
        let va = VirtAddr(0x4000_0000);
        k.mmap_anonymous(pid, va, pages * PAGE_SIZE, true).unwrap();
        let per_sweep = time_per_iter_warm(sweeps / 10, sweeps, || {
            for p in 0..pages {
                std::hint::black_box(
                    k.translate(pid, va.offset(p * PAGE_SIZE), Access::user_read()).unwrap(),
                );
            }
        });
        metrics.push((format!("pte_walk_warm_{name}_ns"), per_sweep / pages as f64));
        if entries > 0 {
            // Steady-state cache effectiveness of the sweep, as sanitized
            // gauges (see EXPERIMENTS.md: `tlb`/`psc` `hit_rate`).
            k.record_rate_gauges(tel);
        }
    }

    // Batched translation over the same sweep, on one machine in steady
    // state: the batch path hoists process lookup and CR3 out of the loop.
    let mut k = machine(16);
    let pid = k.create_process(false).unwrap();
    let va = VirtAddr(0x4000_0000);
    k.mmap_anonymous(pid, va, pages * PAGE_SIZE, true).unwrap();
    let vas: Vec<VirtAddr> = (0..pages).map(|p| va.offset(p * PAGE_SIZE)).collect();
    let mut phys = Vec::new();
    let per_batch = time_per_iter(sweeps, || {
        k.translate_batch(pid, &vas, Access::user_read(), &mut phys).unwrap();
        std::hint::black_box(&phys);
    }) / pages as f64;
    let per_loop = time_per_iter(sweeps, || {
        for &v in &vas {
            std::hint::black_box(k.translate(pid, v, Access::user_read()).unwrap());
        }
    }) / pages as f64;
    metrics.push(("translate_batch_ops_per_sec".into(), 1e9 / per_batch));
    metrics.push(("translate_loop_ops_per_sec".into(), 1e9 / per_loop));
    metrics.push(("translate_batch_speedup".into(), per_loop / per_batch));
}

fn main() {
    let opts = parse_args();
    header(&format!(
        "bench-baseline — label '{}'{}",
        opts.label,
        if opts.quick { " (quick)" } else { "" }
    ));

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut tel = Counters::new(&format!("bench-baseline-{}", opts.label));
    tel.set_bool("bench", "quick", opts.quick);
    let overall = Instant::now();

    bench_walk_latency(opts.quick, &mut metrics);
    bench_dram_throughput(opts.quick, &mut metrics);
    bench_alloc_throughput(opts.quick, &mut metrics);
    bench_monte_carlo(opts.quick, &mut metrics);
    bench_table4_smoke(opts.quick, &mut metrics, &mut tel);
    bench_fork_campaign(opts.quick, &mut metrics);
    bench_service(opts.quick, &mut metrics, &mut tel);
    bench_rollback(opts.quick, &mut metrics);
    bench_psc(opts.quick, &mut metrics, &mut tel);
    bench_flip_model(opts.quick, &mut metrics);
    bench_datapath(opts.quick, &mut metrics);

    metrics.push(("total_wall_s".into(), overall.elapsed().as_secs_f64()));
    for (key, value) in &metrics {
        tel.set_f64("bench", key, *value);
        kv(key, format!("{value:.3}"));
    }

    let section = cta_bench::baseline::render_section(opts.quick, &metrics);
    cta_bench::baseline::merge_into_file(&opts.out, &opts.label, &section);
    kv("written", opts.out.display());
    emit_telemetry(&tel);
}
