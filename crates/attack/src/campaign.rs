//! Multi-seed attack campaigns over independent simulated machines.
//!
//! A single attack run answers "does this exploit work against *this*
//! module?"; the paper's claims are statistical, over many modules drawn
//! from the flip distribution. A *campaign* runs one attack per seed,
//! each against a freshly built kernel, and collects the outcomes.
//!
//! Campaigns follow the `cta_parallel` determinism contract: every seed's
//! trial is fully independent (its kernel is built *inside* the worker —
//! the simulator's shared state is single-threaded by design and never
//! crosses a thread boundary), and results come back in seed order, so
//! the output is a pure function of the seed list regardless of
//! `threads`. `threads <= 1` runs the exact serial loop.

use cta_telemetry::{Counters, Group, StatSource};
use cta_vm::{Kernel, VmError};

use crate::brute::BruteForceReport;
use crate::outcome::AttackOutcome;
use crate::{BruteForceCtaAttack, SprayAttack, TemplatingAttack};

/// Runs one trial per seed, up to `threads` at a time, returning results
/// in seed order.
///
/// `build` constructs the trial's kernel from its seed; `run` executes
/// the attack against it. Both run entirely inside the worker: kernels
/// are `!Send` (the DRAM vulnerability model is reference-counted) and
/// never leave the thread that built them.
///
/// # Errors
///
/// The lowest-seed-index error, if any trial failed to build or run.
pub fn run_campaign<T, B, R>(
    seeds: &[u64],
    threads: usize,
    build: B,
    run: R,
) -> Result<Vec<T>, VmError>
where
    T: Send,
    B: Fn(u64) -> Result<Kernel, VmError> + Sync,
    R: Fn(&mut Kernel) -> Result<T, VmError> + Sync,
{
    cta_parallel::try_parallel_map(seeds.len(), threads, |i| {
        let mut kernel = build(seeds[i])?;
        run(&mut kernel)
    })
}

/// Runs a [`SprayAttack`] against one freshly built kernel per seed.
///
/// # Errors
///
/// The lowest-seed-index error, if any trial failed.
pub fn spray_campaign<B>(
    attack: &SprayAttack,
    seeds: &[u64],
    threads: usize,
    build: B,
) -> Result<Vec<AttackOutcome>, VmError>
where
    B: Fn(u64) -> Result<Kernel, VmError> + Sync,
{
    run_campaign(seeds, threads, build, |k| attack.run(k))
}

/// Runs a [`TemplatingAttack`] against one freshly built kernel per seed.
///
/// # Errors
///
/// The lowest-seed-index error, if any trial failed.
pub fn templating_campaign<B>(
    attack: &TemplatingAttack,
    seeds: &[u64],
    threads: usize,
    build: B,
) -> Result<Vec<AttackOutcome>, VmError>
where
    B: Fn(u64) -> Result<Kernel, VmError> + Sync,
{
    run_campaign(seeds, threads, build, |k| attack.run(k))
}

/// Runs the Algorithm 1 brute force against one freshly built kernel per
/// seed, keeping each trial's step-count report alongside its outcome.
///
/// # Errors
///
/// The lowest-seed-index error, if any trial failed.
pub fn brute_campaign<B>(
    attack: &BruteForceCtaAttack,
    seeds: &[u64],
    threads: usize,
    build: B,
) -> Result<Vec<(AttackOutcome, BruteForceReport)>, VmError>
where
    B: Fn(u64) -> Result<Kernel, VmError> + Sync,
{
    run_campaign(seeds, threads, build, |k| attack.run(k))
}

/// Like [`run_campaign`], but each trial also snapshots its kernel's full
/// telemetry (DRAM, TLB, kernel, allocator counters) before the machine is
/// dropped, and the per-trial snapshots are merged **in seed order** into
/// one labeled [`Counters`] registry.
///
/// Counter merging is integer addition, so the merged registry is
/// identical for any `threads` value — the same determinism contract the
/// trial results themselves follow.
///
/// # Errors
///
/// The lowest-seed-index error, if any trial failed to build or run.
pub fn run_campaign_with_counters<T, B, R>(
    label: &str,
    seeds: &[u64],
    threads: usize,
    build: B,
    run: R,
) -> Result<(Vec<T>, Counters), VmError>
where
    T: Send,
    B: Fn(u64) -> Result<Kernel, VmError> + Sync,
    R: Fn(&mut Kernel) -> Result<T, VmError> + Sync,
{
    let trials = cta_parallel::try_parallel_map(seeds.len(), threads, |i| {
        let mut kernel = build(seeds[i])?;
        let result = run(&mut kernel)?;
        let mut shard = Counters::new(label);
        kernel.record_counters(&mut shard);
        Ok::<_, VmError>((result, shard))
    })?;

    let mut counters = Counters::new(label);
    let mut results = Vec::with_capacity(trials.len());
    for (result, shard) in trials {
        counters.merge(&shard);
        results.push(result);
    }
    counters.set_u64("campaign", "trials", seeds.len() as u64);
    Ok((results, counters))
}

/// Runs `trials` trials against forks of one pre-booted kernel, serially,
/// returning results in trial order.
///
/// The boot-once/fork-per-trial counterpart of [`run_campaign`] for
/// experiments whose trials share one module: because boot is
/// deterministic, forking a freshly booted kernel is bit-identical to
/// rebooting it, minus the boot cost. Each fork shares the parent's DRAM
/// rows copy-on-write, so it is O(materialized rows) cheap. Trials run serially on the caller's thread — the parent
/// kernel is `!Send` and cannot be shared across workers.
///
/// `run` receives the trial index alongside the forked kernel, for trials
/// that vary attack parameters (not the module) per trial.
///
/// # Errors
///
/// The lowest-index error, if any trial failed.
pub fn run_forked_campaign<T, R>(
    parent: &Kernel,
    trials: usize,
    mut run: R,
) -> Result<Vec<T>, VmError>
where
    R: FnMut(usize, &mut Kernel) -> Result<T, VmError>,
{
    let mut results = Vec::with_capacity(trials);
    for i in 0..trials {
        let mut kernel = parent.fork();
        results.push(run(i, &mut kernel)?);
    }
    Ok(results)
}

/// Like [`run_forked_campaign`], but each trial also snapshots its forked
/// kernel's full telemetry before the fork is dropped, merged **in trial
/// order** into one labeled [`Counters`] registry (plus a
/// `campaign.trials` count) — the same shape
/// [`run_campaign_with_counters`] produces.
///
/// # Errors
///
/// The lowest-index error, if any trial failed.
pub fn run_forked_campaign_with_counters<T, R>(
    label: &str,
    parent: &Kernel,
    trials: usize,
    mut run: R,
) -> Result<(Vec<T>, Counters), VmError>
where
    R: FnMut(usize, &mut Kernel) -> Result<T, VmError>,
{
    let mut counters = Counters::new(label);
    let mut results = Vec::with_capacity(trials);
    for i in 0..trials {
        let mut kernel = parent.fork();
        results.push(run(i, &mut kernel)?);
        let mut shard = Counters::new(label);
        kernel.record_counters(&mut shard);
        counters.merge(&shard);
    }
    counters.set_u64("campaign", "trials", trials as u64);
    Ok((results, counters))
}

/// Aggregate statistics over a campaign's outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Trials run (one per seed).
    pub trials: usize,
    /// Trials where the attacker demonstrated privilege escalation.
    pub successes: usize,
    /// Total disturbance flips across all trials.
    pub total_flips: u64,
    /// Total rows hammered across all trials.
    pub total_rows_hammered: u64,
    /// Total simulated time across all trials, nanoseconds.
    pub total_sim_time_ns: u64,
}

impl CampaignSummary {
    /// Folds outcomes (in campaign order) into aggregate counts.
    pub fn from_outcomes<'a, I>(outcomes: I) -> Self
    where
        I: IntoIterator<Item = &'a AttackOutcome>,
    {
        let mut s = CampaignSummary {
            trials: 0,
            successes: 0,
            total_flips: 0,
            total_rows_hammered: 0,
            total_sim_time_ns: 0,
        };
        for out in outcomes {
            s.trials += 1;
            s.successes += usize::from(out.success());
            s.total_flips += out.flips_induced;
            s.total_rows_hammered += out.rows_hammered;
            s.total_sim_time_ns += out.sim_time_ns;
        }
        s
    }

    /// Fraction of trials that escalated privilege.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.successes as f64 / self.trials as f64
    }
}

impl StatSource for CampaignSummary {
    fn group(&self) -> &'static str {
        "campaign"
    }

    fn record(&self, g: &mut Group) {
        g.add_u64("trials", self.trials as u64);
        g.add_u64("successes", self.successes as u64);
        g.add_u64("total_flips", self.total_flips);
        g.add_u64("total_rows_hammered", self.total_rows_hammered);
        g.add_u64("total_sim_time_ns", self.total_sim_time_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_core::SystemBuilder;
    use cta_dram::DisturbanceParams;

    fn build(seed: u64, protected: bool) -> Result<Kernel, VmError> {
        SystemBuilder::new(8 << 20)
            .ptp_bytes(512 * 1024)
            .seed(seed)
            .protected(protected)
            .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
            .build()
    }

    #[test]
    fn parallel_spray_campaign_matches_serial_loop() {
        let attack = SprayAttack::default();
        let seeds: Vec<u64> = (0..6).collect();
        // Ground truth: today's serial pattern, one run after another.
        let mut serial = Vec::new();
        for &seed in &seeds {
            let mut k = build(seed, false).unwrap();
            serial.push(attack.run(&mut k).unwrap());
        }
        for threads in [1, 4] {
            let campaign =
                spray_campaign(&attack, &seeds, threads, |seed| build(seed, false)).unwrap();
            assert_eq!(campaign, serial, "threads={threads}");
        }
    }

    #[test]
    fn campaign_summary_counts_successes() {
        let attack = SprayAttack::default();
        let seeds: Vec<u64> = (0..8).collect();
        let stock = spray_campaign(&attack, &seeds, 4, |seed| build(seed, false)).unwrap();
        let cta = spray_campaign(&attack, &seeds, 4, |seed| build(seed, true)).unwrap();
        let stock_summary = CampaignSummary::from_outcomes(&stock);
        let cta_summary = CampaignSummary::from_outcomes(&cta);
        // Same statistical claim the per-seed unit tests make, now through
        // the campaign API: stock falls to some module, CTA to none.
        assert!(stock_summary.successes >= 1, "{stock_summary:?}");
        assert_eq!(cta_summary.successes, 0, "{cta_summary:?}");
        assert_eq!(cta_summary.trials, 8);
        assert!(cta_summary.total_rows_hammered > 0);
        assert!((0.0..=1.0).contains(&stock_summary.success_rate()));
    }

    #[test]
    fn campaign_counters_merge_deterministically_across_shards() {
        let attack = SprayAttack::default();
        let seeds: Vec<u64> = (0..6).collect();
        let run = |k: &mut Kernel| attack.run(k);

        let (serial_out, serial_counters) =
            run_campaign_with_counters("spray", &seeds, 1, |s| build(s, false), run).unwrap();
        for threads in [2, 4] {
            let (out, counters) =
                run_campaign_with_counters("spray", &seeds, threads, |s| build(s, false), run)
                    .unwrap();
            assert_eq!(out, serial_out, "threads={threads}");
            // The merged registry — every group, key, and flag — must be
            // exactly what the serial run produced.
            assert_eq!(counters, serial_counters, "threads={threads}");
            assert_eq!(counters.to_json(), serial_counters.to_json(), "threads={threads}");
        }

        // The merged counters really aggregate across trials: flips seen
        // by the DRAM group equal the sum over individual outcomes.
        let dram = serial_counters.group("dram").unwrap();
        let outcome_flips: u64 = serial_out.iter().map(|o| o.flips_induced).sum();
        let one_to_zero = dram.get_u64("flips_one_to_zero").unwrap();
        let zero_to_one = dram.get_u64("flips_zero_to_one").unwrap();
        assert_eq!(one_to_zero + zero_to_one, outcome_flips);
        assert_eq!(serial_counters.group("campaign").unwrap().get_u64("trials"), Some(6));
    }

    #[test]
    fn forked_campaign_matches_reboot_per_trial() {
        let attack = SprayAttack::default();
        let trials = 4usize;
        let seeds = vec![77u64; trials]; // reboot campaign: same module each trial
        let build = |seed: u64| {
            SystemBuilder::new(8 << 20)
                .ptp_bytes(512 * 1024)
                .seed(seed)
                .disturbance(DisturbanceParams { pf: 0.05, ..DisturbanceParams::default() })
                .build()
        };
        let rebooted = spray_campaign(&attack, &seeds, 1, build).unwrap();
        let parent = build(77).unwrap();
        let forked = run_forked_campaign(&parent, trials, |_, k| attack.run(k)).unwrap();
        assert_eq!(forked, rebooted);
    }

    #[test]
    fn forked_campaign_counters_match_reboot_per_trial() {
        let attack = SprayAttack::default();
        let trials = 4usize;
        let seeds = vec![9u64; trials];
        let (reboot_out, reboot_counters) =
            run_campaign_with_counters("spray", &seeds, 1, |s| build(s, false), |k| attack.run(k))
                .unwrap();
        let parent = build(9, false).unwrap();
        let (fork_out, fork_counters) =
            run_forked_campaign_with_counters("spray", &parent, trials, |_, k| attack.run(k))
                .unwrap();
        assert_eq!(fork_out, reboot_out);
        assert_eq!(fork_counters, reboot_counters);
        assert_eq!(fork_counters.to_json(), reboot_counters.to_json());
    }

    #[test]
    fn brute_campaign_returns_reports_in_seed_order() {
        let attack = BruteForceCtaAttack::default();
        let seeds = [3u64, 5, 7];
        let parallel = brute_campaign(&attack, &seeds, 3, |seed| build(seed, true)).unwrap();
        let serial = brute_campaign(&attack, &seeds, 1, |seed| build(seed, true)).unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), seeds.len());
        for (out, report) in &parallel {
            assert!(!out.success());
            assert!(report.rows_hammered > 0 || report.fill_mappings > 0);
        }
    }
}
