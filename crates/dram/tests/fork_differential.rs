//! Differential test: copy-on-write sharing is invisible. One seeded
//! operation sequence — writes, fills, hammering, refresh outages, power
//! cycles, peeks — drives a module whose every row is shared with a live
//! fork and a module whose rows are private, and every observable (full
//! DRAM contents, flip log, statistics, telemetry JSON) must match byte for
//! byte, while the fork sees none of it.

use cta_dram::{DramConfig, DramModule, RowId};
use cta_telemetry::Counters;

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

/// Drives one seeded op sequence against `m`, returning the peek results
/// collected along the way (an observable of their own: mid-sequence reads
/// must agree, not just the final state).
fn drive(m: &mut DramModule, seed: u64) -> Vec<Vec<u8>> {
    let cap = m.capacity_bytes();
    let rows = m.geometry().total_rows();
    let threshold = m.config().disturbance.hammer_threshold;
    let mut rng = Mix(seed);
    let mut peeks = Vec::new();
    for step in 0..200 {
        match rng.next() % 10 {
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
                let row = RowId(1 + rng.next() % (rows - 2));
                m.hammer_double_sided(row).unwrap();
            }
            7 => {
                if step % 2 == 0 {
                    m.disable_refresh();
                    m.advance(m.config().retention.min_ns / 4);
                } else {
                    m.enable_refresh();
                }
            }
            8 => {
                let addr = rng.next() % cap;
                let len = (rng.next() % 64).min(cap - addr) as usize;
                peeks.push(m.peek(addr, len).unwrap());
                let read = m.read(addr, len).unwrap();
                peeks.push(read);
            }
            _ => {
                if step % 50 == 17 {
                    m.power_off(m.config().retention.min_ns / 2);
                } else {
                    m.advance(rng.next() % 1_000_000);
                }
            }
        }
    }
    m.enable_refresh();
    peeks
}

/// Mid-sequence reads, final contents, the flip log with its drop count,
/// and the statistics telemetry of one driven module.
type Observation = (Vec<Vec<u8>>, Vec<u8>, String, String);

/// Drives `m` through the op sequence `seed` picks and observes it.
fn run(m: &mut DramModule, seed: u64) -> Observation {
    let peeks = drive(m, seed);
    let contents = m.peek(0, m.capacity_bytes() as usize).unwrap();
    let log = m.take_flip_log();
    let flips: String = std::iter::once(format!("dropped={};", log.dropped))
        .chain(
            log.iter().map(|e| format!("{:?}/{:?}/{:?}/{};", e.row, e.bit, e.direction, e.time_ns)),
        )
        .collect();
    let mut counters = Counters::new("diff");
    counters.record(m.stats());
    counters.add_u64("dram", "rows_materialized", m.rows_materialized() as u64);
    (peeks, contents, flips, counters.to_json())
}

#[test]
fn shared_rows_behave_like_private_rows_under_seeded_op_sequence() {
    for seed in [1u64, 0xDEAD, 42] {
        let config = DramConfig::small_test().with_seed(seed);
        let (mut private, mut shared) = (DramModule::new(config.clone()), DramModule::new(config));
        // One history on both, then share every row of one of them.
        drive(&mut private, !seed);
        drive(&mut shared, !seed);
        let fork = shared.fork();
        assert_eq!(shared.rows_shared_with_forks(), shared.rows_materialized(), "seed={seed}");
        let fork_contents = fork.peek(0, fork.capacity_bytes() as usize).unwrap();

        assert_eq!(run(&mut shared, seed), run(&mut private, seed), "seed={seed}");
        assert_eq!(
            fork.peek(0, fork.capacity_bytes() as usize).unwrap(),
            fork_contents,
            "seed={seed}: the parent's writes reached its fork"
        );
    }
}

#[test]
fn forked_module_diverges_without_affecting_parent() {
    let mut parent = DramModule::new(DramConfig::small_test());
    parent.fill(0, 4096, 0xFF).unwrap();
    let before = parent.peek(0, 4096).unwrap();

    let mut child = parent.fork();
    assert_eq!(child.peek(0, 4096).unwrap(), before);
    child.fill(0, 4096, 0x00).unwrap();
    child.hammer_double_sided(RowId(2)).unwrap();

    assert_eq!(parent.peek(0, 4096).unwrap(), before);
    assert_eq!(parent.stats().total_flips(), 0);
    // The child really diverged (zero-filled, modulo rare 0→1 reverse
    // flips from the hammer): nothing close to the parent's all-ones.
    let child_ones: u32 = child.peek(0, 4096).unwrap().iter().map(|b| b.count_ones()).sum();
    assert!(child_ones < 100, "ones={child_ones}");
}

#[test]
fn fork_shares_rows_until_written() {
    let mut parent = DramModule::new(DramConfig::small_test());
    parent.fill(0, 4096, 0xAA).unwrap();
    parent.fill(5 * 4096, 4096, 0xBB).unwrap();
    assert_eq!(parent.rows_shared_with_forks(), 0);

    let mut child = parent.fork();
    assert_eq!(parent.rows_shared_with_forks(), parent.rows_materialized());

    // Child writes one row: only that row's sharing breaks.
    child.fill(0, 4096, 0x11).unwrap();
    assert_eq!(parent.rows_shared_with_forks(), parent.rows_materialized() - 1);
    assert!(parent.peek(0, 4096).unwrap().iter().all(|b| *b == 0xAA));

    drop(child);
    assert_eq!(parent.rows_shared_with_forks(), 0);
}
