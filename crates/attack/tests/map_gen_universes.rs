//! The vulnerability-map derivation version is part of a machine's
//! identity, not an implementation detail: `MapGen::Stream` and
//! `MapGen::Counter` fix different (equally valid) maps for one seed, and
//! each reproduces itself exactly. Campaigns must also actually flip bits
//! at the differential suites' densities, or every byte-identity check
//! downstream would pass vacuously.

use cta_attack::spray::SprayAttack;
use cta_core::SystemBuilder;
use cta_dram::{DisturbanceParams, MapGen};
use cta_vm::Kernel;

fn machine(seed: u64, pf: f64, map_gen: MapGen) -> Kernel {
    SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(seed)
        .map_gen(map_gen)
        .disturbance(DisturbanceParams { pf, ..DisturbanceParams::default() })
        .build()
        .unwrap()
}

#[test]
fn map_gen_versions_are_distinct_deterministic_universes() {
    // Stream and Counter derive different maps from one seed — campaigns
    // may (and at this pf, do) diverge across versions, while each version
    // reproduces itself exactly.
    let attack = SprayAttack::default();
    let run = |map_gen| {
        let mut machine = machine(11, 0.05, map_gen);
        let out = attack.run(&mut machine).unwrap();
        (out, machine.dram().stats().total_flips())
    };
    let (out_stream, flips_stream) = run(MapGen::Stream);
    let (out_stream2, flips_stream2) = run(MapGen::Stream);
    let (out_counter, flips_counter) = run(MapGen::Counter);
    assert_eq!(out_stream, out_stream2, "stream derivation must be reproducible");
    assert_eq!(flips_stream, flips_stream2);
    assert!(flips_stream > 0 && flips_counter > 0, "both universes must actually flip");
    assert_ne!(
        (out_stream, flips_stream),
        (out_counter, flips_counter),
        "distinct derivations should yield observably different campaigns"
    );
}

#[test]
fn campaigns_actually_flip_bits() {
    // Guard against the differential suites passing vacuously on a
    // flip-free run.
    let attack = SprayAttack::default();
    let mut kernel = machine(3, 0.05, MapGen::default());
    attack.run(&mut kernel).unwrap();
    assert!(kernel.dram().stats().total_flips() > 0, "spray induced no flips at pf=0.05");
}
