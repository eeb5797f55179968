//! Differential campaigns: paging-structure caches must be invisible to an
//! attacker who flushes translation state before every probe.
//!
//! The simulator's determinism contract says DRAM traffic — not MMU cache
//! configuration — decides which bits flip and when. Warm translation
//! caches legitimately change DRAM traffic (that is their whole point), so
//! the equivalence holds exactly when the attacker forces every probe to
//! walk from CR3, the way Algorithm 1 interleaves accesses with `invlpg`.
//! With `flush_per_probe` set, a campaign on a PSC-equipped machine must be
//! bit-identical to the same campaign on a machine with the PSC disabled:
//! same outcome (including simulated time and the human-readable log), same
//! flip log, same DRAM statistics, same telemetry (modulo the `psc` counter
//! group itself), and the same ground-truth verifier verdict.

use cta_attack::spray::SprayAttack;
use cta_attack::templating::TemplatingAttack;
use cta_core::verify::verify_system;
use cta_core::SystemBuilder;
use cta_dram::DisturbanceParams;
use cta_vm::Kernel;

/// Two machines identical in every respect except PSC capacity.
fn machines(seed: u64, pf: f64) -> (Kernel, Kernel) {
    let base = SystemBuilder::new(8 << 20)
        .ptp_bytes(512 * 1024)
        .seed(seed)
        .disturbance(DisturbanceParams { pf, ..DisturbanceParams::default() });
    let with_psc = base.clone().psc_entries(16).build().unwrap();
    let without_psc = base.clone().psc_entries(0).build().unwrap();
    (with_psc, without_psc)
}

/// Asserts that two post-campaign machines are observably identical,
/// ignoring only the `psc` telemetry group (the PSC-less machine reports
/// all-zero PSC counters; the PSC-equipped one reports its misses).
fn assert_machines_identical(with_psc: &Kernel, without_psc: &Kernel, ctx: &str) {
    assert_eq!(with_psc.now_ns(), without_psc.now_ns(), "{ctx}: simulated clocks diverged");

    let sa = with_psc.dram().stats();
    let sb = without_psc.dram().stats();
    assert_eq!(sa, sb, "{ctx}: DRAM statistics (including the flip log) diverged");
    assert_eq!(sa.flip_log.dropped(), sb.flip_log.dropped(), "{ctx}: flip-log drop counts");
    assert!(sa.flip_log.iter().eq(sb.flip_log.iter()), "{ctx}: flip-log events diverged");

    let ca = with_psc.counters("differential");
    let cb = without_psc.counters("differential");
    for (name, group) in ca.groups() {
        if name == "psc" {
            continue;
        }
        assert_eq!(Some(group), cb.group(name), "{ctx}: telemetry group `{name}` diverged");
    }
    for (name, _) in cb.groups() {
        assert!(
            name == "psc" || ca.group(name).is_some(),
            "{ctx}: telemetry group `{name}` missing on the PSC machine"
        );
    }

    let ra = verify_system(with_psc).unwrap();
    let rb = verify_system(without_psc).unwrap();
    assert_eq!(ra.is_clean(), rb.is_clean(), "{ctx}: verifier verdicts diverged");
    assert_eq!(
        ra.self_references().count(),
        rb.self_references().count(),
        "{ctx}: self-reference counts diverged"
    );
}

#[test]
fn spray_attack_is_bit_identical_with_and_without_psc() {
    let attack = SprayAttack { flush_per_probe: true, ..SprayAttack::default() };
    for seed in [0u64, 3, 5] {
        let (mut with_psc, mut without_psc) = machines(seed, 0.05);
        let out_a = attack.run(&mut with_psc).unwrap();
        let out_b = attack.run(&mut without_psc).unwrap();
        assert_eq!(out_a, out_b, "seed {seed}: spray outcomes diverged");
        assert_machines_identical(&with_psc, &without_psc, &format!("spray seed {seed}"));
    }
}

#[test]
fn templating_attack_is_bit_identical_with_and_without_psc() {
    let attack = TemplatingAttack { flush_per_probe: true, ..TemplatingAttack::default() };
    for seed in [0u64, 1] {
        let (mut with_psc, mut without_psc) = machines(seed, 0.004);
        let out_a = attack.run(&mut with_psc).unwrap();
        let out_b = attack.run(&mut without_psc).unwrap();
        assert_eq!(out_a, out_b, "seed {seed}: templating outcomes diverged");
        assert_machines_identical(&with_psc, &without_psc, &format!("templating seed {seed}"));
    }
}

#[test]
fn psc_counters_show_the_psc_actually_took_part() {
    // Guard against the differential test passing vacuously because the
    // PSC machine never consulted its caches: the flush-per-probe campaign
    // must still record one PSC *miss* per cold walk on the PSC machine
    // and nothing at all on the disabled one.
    let attack = SprayAttack { flush_per_probe: true, ..SprayAttack::default() };
    let (mut with_psc, mut without_psc) = machines(3, 0.05);
    attack.run(&mut with_psc).unwrap();
    attack.run(&mut without_psc).unwrap();
    assert!(with_psc.psc_stats().misses > 0, "PSC machine recorded no PSC lookups");
    assert_eq!(with_psc.psc_stats().hits, 0, "flush-per-probe must keep the PSC cold");
    assert_eq!(without_psc.psc_stats(), Default::default(), "disabled PSC must stay inert");
}
