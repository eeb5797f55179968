//! Randomized op-sequence fuzz of the DRAM undo journal.
//!
//! The rollback invariant: for *any* trial body, `journal_begin` →
//! ops → `journal_rollback` leaves the module observably identical to a
//! module that never ran the trial. The proptest below drives a random
//! interleaving of every journaled mutation class — writes, fills,
//! hammering, reads (charge touches), clock advances, refresh
//! enable/disable, decay windows, row remapping, flip-log drains and
//! capacity changes, power-off remanence — against a reference fork taken
//! before the journal opened, then compares:
//!
//! * the full contents digest, recomputed here from `peek_into` rows,
//! * the simulated clock, statistics, remap table, materialization
//!   footprint, model-cache occupancy, and every row's activation counter,
//! * and, to expose charge-plane divergence that identical contents could
//!   mask, the contents again after an identical decay probe (refresh
//!   off, clock past the retention horizon) applied to both modules.
//!
//! The reference fork shares the module's rows and model caches
//! copy-on-write, so it is also observed after the ops and *before*
//! rollback: a trial that wrote through to a shared row or cache would
//! show there, while a rollback would undo it on both sides and hide it.
//! Some cases shrink the model caches to a few rows, so the trial evicts
//! entries the journal's snapshot shares and rollback must restore them.
//!
//! The module's own [`DramModule::contents_digest`] is cached and, inside
//! a journal, updated incrementally; every test here checks it against
//! the from-scratch oracle, never against another cached value.

use cta_dram::{row_digest, DisturbanceParams, DramConfig, DramModule, RowId};
use proptest::prelude::*;

/// One randomized mutation. Parameters are raw and clamped at apply time
/// so every generated sequence is valid.
#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, byte: u8, len: u8 },
    Fill { addr: u64, byte: u8, len: u8 },
    WriteU64 { addr: u64, value: u64 },
    Read { addr: u64, len: u8 },
    HammerDouble { row: u64 },
    Hammer { row: u64, count: u16 },
    Advance { ns: u32 },
    DisableRefresh,
    EnableRefresh,
    Remap { faulty: u64, spare: u64 },
    TakeFlipLog,
    SetFlipLogCapacity { capacity: u8 },
    PowerOff { ns: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), any::<u8>(), any::<u8>()).prop_map(|(addr, byte, len)| Op::Write {
            addr,
            byte,
            len
        }),
        (any::<u64>(), any::<u8>(), any::<u8>()).prop_map(|(addr, byte, len)| Op::Fill {
            addr,
            byte,
            len
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(addr, value)| Op::WriteU64 { addr, value }),
        (any::<u64>(), any::<u8>()).prop_map(|(addr, len)| Op::Read { addr, len }),
        any::<u64>().prop_map(|row| Op::HammerDouble { row }),
        (any::<u64>(), any::<u16>()).prop_map(|(row, count)| Op::Hammer { row, count }),
        any::<u32>().prop_map(|ns| Op::Advance { ns }),
        Just(Op::DisableRefresh),
        Just(Op::EnableRefresh),
        (any::<u64>(), any::<u64>()).prop_map(|(faulty, spare)| Op::Remap { faulty, spare }),
        Just(Op::TakeFlipLog),
        any::<u8>().prop_map(|capacity| Op::SetFlipLogCapacity { capacity }),
        any::<u32>().prop_map(|ns| Op::PowerOff { ns }),
    ]
}

fn apply(m: &mut DramModule, op: &Op) {
    let capacity = m.capacity_bytes();
    let rows = m.geometry().total_rows();
    match op {
        Op::Write { addr, byte, len } => {
            let len = (*len as u64 % 64 + 1).min(capacity) as usize;
            let addr = addr % (capacity - len as u64);
            m.write(addr, &vec![*byte; len]).expect("in-bounds write");
        }
        Op::Fill { addr, byte, len } => {
            let len = (*len as u64 % 256 + 1).min(capacity) as usize;
            let addr = addr % (capacity - len as u64);
            m.fill(addr, len, *byte).expect("in-bounds fill");
        }
        Op::WriteU64 { addr, value } => {
            let addr = (addr % (capacity - 8)) & !7;
            m.write_u64(addr, *value).expect("in-bounds write_u64");
        }
        Op::Read { addr, len } => {
            let len = (*len as u64 % 64 + 1).min(capacity) as usize;
            let addr = addr % (capacity - len as u64);
            m.read(addr, len).expect("in-bounds read");
        }
        Op::HammerDouble { row } => {
            m.hammer_double_sided(RowId(row % rows)).expect("valid victim");
        }
        Op::Hammer { row, count } => {
            m.hammer(RowId(row % rows), u64::from(*count) % 512 + 1).expect("valid row");
        }
        Op::Advance { ns } => m.advance(u64::from(*ns) % 10_000_000),
        Op::DisableRefresh => m.disable_refresh(),
        Op::EnableRefresh => m.enable_refresh(),
        Op::Remap { faulty, spare } => {
            let faulty = RowId(faulty % rows);
            let spare = RowId(spare % rows);
            // Remapping can legitimately refuse (same row, already
            // remapped, cell-type mismatch); rejection mutates nothing.
            let _ = m.remap_row(faulty, spare);
        }
        Op::TakeFlipLog => {
            m.take_flip_log();
        }
        Op::SetFlipLogCapacity { capacity } => {
            m.set_flip_log_capacity(*capacity as usize % 128 + 1);
        }
        Op::PowerOff { ns } => m.power_off(u64::from(*ns) % 5_000_000_000),
    }
}

/// The contents digest from its definition: the wrapping sum of
/// [`row_digest`] over every logical row, read through the non-mutating
/// peek (so never-written rows read as zeros).
fn oracle_digest(m: &DramModule) -> u64 {
    let row_bytes = m.geometry().row_bytes();
    let mut buf = vec![0u8; row_bytes as usize];
    (0..m.geometry().total_rows()).fold(0u64, |sum, row| {
        m.peek_into(row * row_bytes, &mut buf).expect("in-bounds peek");
        sum.wrapping_add(row_digest(row, &buf))
    })
}

/// Everything cheaply observable about a module, as one comparable blob.
type Observation = (u64, u64, String, usize, usize, Vec<u64>, usize, usize);

fn observe(m: &DramModule) -> Observation {
    (
        oracle_digest(m),
        m.now_ns(),
        format!("{:?}|{:?}", m.stats(), m.remap_table()),
        m.rows_materialized(),
        m.remap_table().len(),
        (0..m.geometry().total_rows()).map(|r| m.window_activations(RowId(r))).collect(),
        m.model_cache_rows(),
        m.model_cache_bytes(),
    )
}

/// A small module with a denser disturbance map than the default so
/// short op sequences flip bits.
fn fuzz_module(seed: u64) -> DramModule {
    DramModule::new(
        DramConfig::small_test()
            .with_seed(seed)
            .with_disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() }),
    )
}

proptest! {
    // Each case builds two small modules and replays a full op sequence;
    // 48 cases keeps the suite under a few seconds while still covering
    // thousands of op interleavings across runs.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rollback_restores_the_module_for_any_op_sequence(
        seed in any::<u64>(),
        cache_rows in (any::<bool>(), 2usize..5).prop_map(|(tight, rows)| tight.then_some(rows)),
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut m = fuzz_module(seed);
        if let Some(rows) = cache_rows {
            m.set_model_cache_capacity(rows);
        }
        // Pre-trial state with some materialized rows and history, so
        // rollback must restore *dirty* pre-images, not just blanks.
        m.fill(0, 4096, 0x5A).expect("prefill");
        m.hammer_double_sided(RowId(1)).expect("prehammer");
        let reference = m.fork();
        let before = observe(&m);

        // Round 0 derives the digest base inside its journal; round 1
        // starts from the base round 0's rollback left in the snapshot.
        for round in 0..2 {
            m.journal_begin();
            for op in &ops {
                apply(&mut m, op);
                prop_assert_eq!(
                    m.contents_digest(),
                    oracle_digest(&m),
                    "journaled digest after {:?} (round {})",
                    op,
                    round
                );
            }
            // The reference fork shares rows with `m` copy-on-write; a
            // store that wrote a shared row in place would show here,
            // where rollback has not yet undone it on both sides.
            prop_assert_eq!(
                observe(&reference),
                before.clone(),
                "a journaled trial leaked into a fork (round {})",
                round
            );
            m.journal_rollback();

            prop_assert_eq!(
                observe(&m),
                before.clone(),
                "rollback must restore the pre-trial observation"
            );
            prop_assert_eq!(m.contents_digest(), before.0, "rolled-back digest (round {})", round);
        }

        // Decay probe: identical futures prove the charge plane (which
        // identical contents alone could mask) was restored too. Reads —
        // not peeks — force decay to apply, so any last_charge_ns
        // divergence shows up as different decay flips.
        let horizon = 3 * 64_000_000; // well past the retention window
        let probe = |m: &mut DramModule| {
            m.disable_refresh();
            m.advance(horizon);
            let capacity = m.capacity_bytes();
            let row_bytes = m.geometry().row_bytes() as usize;
            let mut contents = Vec::with_capacity(capacity as usize);
            let mut addr = 0u64;
            while addr < capacity {
                let take = row_bytes.min((capacity - addr) as usize);
                contents.extend(m.read(addr, take).expect("in-bounds read"));
                addr += take as u64;
            }
            (contents, m.stats().clone())
        };
        let mut reference = reference;
        let expected = probe(&mut reference);
        let actual = probe(&mut m);
        prop_assert_eq!(actual.0, expected.0, "decay probe contents diverged");
        prop_assert_eq!(actual.1, expected.1, "decay probe stats diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Un-journaled mutations — writes, fills, hammering, power cycles,
    // remaps and the rest — interleaved with digest calls and with
    // journaled trials: every mutation outside a journal must drop the
    // cached digest, including a base a rolled-back journal left behind.
    #[test]
    fn cached_digest_tracks_unjournaled_mutations(
        seed in any::<u64>(),
        ops in proptest::collection::vec((op_strategy(), any::<bool>()), 1..40),
    ) {
        let mut m = fuzz_module(seed);
        for (op, journaled) in &ops {
            if *journaled {
                let want = oracle_digest(&m);
                m.journal_begin();
                apply(&mut m, op);
                prop_assert_eq!(m.contents_digest(), oracle_digest(&m), "inside {:?}", op);
                m.journal_rollback();
                prop_assert_eq!(m.contents_digest(), want, "after rolling back {:?}", op);
            } else {
                apply(&mut m, op);
                prop_assert_eq!(m.contents_digest(), oracle_digest(&m), "after {:?}", op);
            }
        }
    }
}

/// A named un-journaled mutation.
type Mutation = (&'static str, fn(&mut DramModule));

/// The named mutation classes, one after another on a cached digest.
#[test]
fn cached_digest_is_dropped_by_each_mutation_class() {
    let mut m = fuzz_module(0);
    let row_bytes = m.geometry().row_bytes();
    let mutations: [Mutation; 5] = [
        ("write", |m| m.write(4096 + 7, &[0xA5; 9]).expect("write")),
        ("fill", |m| m.fill(2 * 4096, 4096, 0xFF).expect("fill")),
        ("hammer", |m| m.hammer_double_sided(RowId(2)).expect("hammer")),
        ("remap_row", |m| m.remap_row(RowId(1), RowId(2)).expect("remap")),
        ("power_off", |m| m.power_off(m.config().retention.max_ns + 1)),
    ];
    m.fill(0, 3 * row_bytes as usize, 0x3C).expect("prefill");
    for (name, mutate) in mutations {
        // Warm the cache inside and outside a journal, then mutate.
        m.journal_begin();
        m.write(5 * row_bytes, &[1]).expect("journaled write");
        assert_eq!(m.contents_digest(), oracle_digest(&m), "journaled, before {name}");
        m.journal_rollback();
        let before = m.contents_digest();
        assert_eq!(before, oracle_digest(&m), "cached, before {name}");
        mutate(&mut m);
        let after = oracle_digest(&m);
        assert_ne!(after, before, "{name} must change the contents");
        assert_eq!(m.contents_digest(), after, "stale digest after {name}");
    }
}
