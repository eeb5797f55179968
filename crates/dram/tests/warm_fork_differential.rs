//! Differential test: per-row model caches are invisible. A module forked
//! from a parent whose vulnerability maps and compiled bitplanes are all
//! warm must behave exactly like a module that rebuilds them cold. One
//! seeded operation sequence — writes, fills, hammering, refresh outages
//! with decay-then-disturb interplay, power cycles, peeks — drives both,
//! and every observable must match byte for byte: mid-sequence reads, full
//! DRAM contents, the flip log in order, and the simulated clock.
//!
//! The per-row kernels themselves (disturb, decay, counter-map generation)
//! are pinned against their scalar references by unit tests inside the
//! crate.

use cta_dram::{
    AddressMapping, CellLayout, CellType, DisturbanceParams, DramConfig, DramGeometry, DramModule,
    MapGen, RowId,
};

/// Tiny deterministic generator (SplitMix64) so the op sequence is seeded
/// without pulling RNG crates into the test.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Drives one seeded op sequence against `m`, returning mid-sequence reads
/// (an observable of their own). Roughly a quarter of the steps run with
/// refresh disabled, so hammering regularly exercises the decay-then-disturb
/// path on partially decayed rows.
fn drive(m: &mut DramModule, seed: u64) -> Vec<Vec<u8>> {
    let cap = m.capacity_bytes();
    let rows = m.geometry().total_rows();
    let threshold = m.config().disturbance.hammer_threshold;
    let retention = m.config().retention;
    let mut rng = Mix(seed);
    let mut peeks = Vec::new();
    for step in 0..250 {
        match rng.next() % 12 {
            0..=2 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 96).min(cap - addr) as usize;
                let byte = (rng.next() & 0xFF) as u8;
                let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                m.write(addr, &data).unwrap();
            }
            3..=4 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 300).min(cap - addr) as usize;
                m.fill(addr, len, (rng.next() & 0xFF) as u8).unwrap();
            }
            5 => {
                let row = RowId(rng.next() % rows);
                m.hammer(row, threshold).unwrap();
            }
            6 => {
                let row = RowId(1 + rng.next() % (rows.saturating_sub(2).max(1)));
                m.hammer_double_sided(row).unwrap();
            }
            7 => {
                // Partial-window decay: sit refresh-less for a stretch inside
                // [min_ns, max_ns), then hammer into the decayed state.
                m.disable_refresh();
                m.advance(retention.min_ns + (rng.next() % (retention.max_ns - retention.min_ns)));
                let row = RowId(1 + rng.next() % (rows.saturating_sub(2).max(1)));
                m.hammer_double_sided(row).unwrap();
            }
            8 => {
                m.enable_refresh();
            }
            9 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 64).min(cap - addr) as usize;
                peeks.push(m.peek(addr, len).unwrap());
                let read = m.read(addr, len).unwrap();
                peeks.push(read);
            }
            10 => {
                let row = RowId(rng.next() % rows);
                peeks.push(vec![m.vulnerable_bits(row).unwrap().len() as u8]);
            }
            _ => {
                if step % 50 == 17 {
                    m.power_off(retention.max_ns + rng.next() % retention.long_max_ns);
                } else {
                    m.advance(rng.next() % 1_000_000);
                }
            }
        }
    }
    m.enable_refresh();
    peeks
}

/// Everything an experimenter can observe about a module after a drive,
/// model-cache telemetry aside (the cold module's warm-up ran under a
/// one-row cache, so its eviction counters differ by construction).
fn observe(m: &mut DramModule, peeks: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, Vec<u8>, String, u64) {
    let contents = m.peek(0, m.capacity_bytes() as usize).unwrap();
    let log = m.take_flip_log();
    // The drop count is an observable of its own: both modules must evict
    // exactly the same events from the bounded window.
    let flips: String = std::iter::once(format!("dropped={};", log.dropped))
        .chain(log.iter().map(|e| format!("{:?}/{}/{}/{};", e.row, e.bit, e.direction, e.time_ns)))
        .collect();
    (peeks, contents, flips, m.now_ns())
}

/// Hammers every row once, advancing a refresh window after each.
fn warm_up(m: &mut DramModule) {
    for row in 0..m.geometry().total_rows() {
        m.hammer_to_threshold(RowId(row)).unwrap();
        m.advance(m.config().refresh_interval_ns);
    }
}

/// A fork of a warmed-up parent — every row's map and planes cached —
/// against a module with the same history whose caches held one row
/// during the warm-up, driven through the same seeded sequence.
fn assert_warm_fork_matches_cold_module(config: DramConfig, seed: u64, ctx: &str) {
    let mut parent = DramModule::new(config.clone());
    warm_up(&mut parent);
    assert!(parent.model_cache_rows() > 1, "{ctx}: the warm-up must cache planes");
    let mut warm = parent.fork();
    let mut cold = DramModule::new(config);
    cold.set_model_cache_capacity(1);
    warm_up(&mut cold);
    cold.set_model_cache_capacity(4096);
    assert!(cold.model_cache_rows() <= 1, "{ctx}: the cold module must start cold");
    let w_peeks = drive(&mut warm, seed);
    let c_peeks = drive(&mut cold, seed);
    let w = observe(&mut warm, w_peeks);
    let c = observe(&mut cold, c_peeks);
    assert_eq!(w.0, c.0, "{ctx}: mid-sequence reads diverged");
    assert_eq!(w.1, c.1, "{ctx}: final row contents diverged");
    assert_eq!(w.2, c.2, "{ctx}: flip logs diverged");
    assert_eq!(w.3, c.3, "{ctx}: simulated clocks diverged");
}

/// The differential module: `small_test` semantics on 512-byte rows.
fn diff_config() -> DramConfig {
    DramConfig {
        geometry: DramGeometry::new(512, 64, 1, AddressMapping::RowLinear),
        layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
        disturbance: DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() },
        ..DramConfig::small_test()
    }
}

#[test]
fn warm_forks_match_cold_modules_across_map_gens() {
    for map_gen in [MapGen::Stream, MapGen::Counter] {
        for seed in [1u64, 5, 42] {
            let config = diff_config().with_seed(seed).with_map_gen(map_gen);
            assert_warm_fork_matches_cold_module(
                config,
                seed,
                &format!("map_gen={map_gen:?} seed={seed}"),
            );
        }
    }
}

#[test]
fn warm_forks_match_cold_modules_on_tail_word_rows() {
    // 4/2/1-byte rows: every row is one zero-padded tail word. High pf so
    // the tiny rows still flip.
    for map_gen in [MapGen::Stream, MapGen::Counter] {
        for (row_bytes, seed) in [(4u64, 7u64), (2, 8), (1, 9)] {
            let config = DramConfig {
                geometry: DramGeometry::new(row_bytes, 64, 1, AddressMapping::RowLinear),
                layout: CellLayout::Alternating { period_rows: 8, first: CellType::True },
                disturbance: DisturbanceParams { pf: 0.2, ..DisturbanceParams::default() },
                ..DramConfig::small_test()
            }
            .with_map_gen(map_gen);
            assert_warm_fork_matches_cold_module(
                config,
                seed,
                &format!("map_gen={map_gen:?} row_bytes={row_bytes}"),
            );
        }
    }
}

#[test]
fn wordwise_tail_flips_stay_inside_the_row() {
    // Hammering 32-bit rows must never set a bit index ≥ 32 (a padding bit
    // of the tail word) or corrupt a neighboring row's bytes.
    let config = DramConfig {
        geometry: DramGeometry::new(4, 64, 1, AddressMapping::RowLinear),
        layout: CellLayout::AllTrue,
        disturbance: DisturbanceParams { pf: 0.3, ..DisturbanceParams::default() },
        ..DramConfig::small_test()
    };
    let mut m = DramModule::new(config);
    m.fill(0, m.capacity_bytes() as usize, 0xFF).unwrap();
    for row in 1..63 {
        m.hammer_to_threshold(RowId(row)).unwrap();
        m.advance(m.config().refresh_interval_ns);
    }
    let log = m.take_flip_log();
    assert!(!log.is_empty(), "pf=0.3 over 62 hammered rows must flip something");
    assert!(log.iter().all(|e| e.bit < 32), "flip escaped the 32-bit row");
    assert_eq!(log.total_recorded(), m.stats().total_flips(), "take must account every flip");
}
