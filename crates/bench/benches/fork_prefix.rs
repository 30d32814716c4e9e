//! Fork-at-injection ablation: shared-prefix suffix execution versus
//! whole-run restores, measured as campaign experiments per second.
//!
//! The campaign here is deliberately *prefix-heavy* — every fault fires in
//! the last tenth of the kernel's committed instructions — so the fault-free
//! prefix dominates each experiment. The whole-run baseline replays that
//! prefix once per experiment; the forked executor sprints one trunk along
//! it and forks a warm machine per experiment shortly before its fault can
//! fire, running only the divergent suffix. Both modes run the *same* spec
//! population sequentially (one worker) and must classify every experiment
//! identically: fork-at-injection is a performance strategy, not a semantic
//! one (`tests/fork_prefix_conformance.rs` pins the bit-level half).
//!
//! A second, untimed arm plans a seeded `sample_any` population of the same
//! size — the real mixed fault set — and asserts that every suffix forks.
//! It is not timed because on pi a mixed suffix is long relative to the
//! run, so its end-to-end gain is small; its fork count is what it checks.
//!
//! Options: `--experiments N` (experiments per timing sample, default 24),
//! `--points N` (Monte-Carlo kernel size, default 400), `--samples N`
//! (timing samples per mode, default 5), `--out PATH` (JSON report path,
//! default `BENCH_fork_prefix.json`).

use gemfi::{FaultBehavior, FaultLocation, FaultSpec, FaultTiming, Outcome};
use gemfi_bench::{time_it_secs, Args};
use gemfi_campaign::fork::{plan_suffixes, run_campaign_forked, ForkConfig};
use gemfi_campaign::{
    prepare_workload, run_experiment, FaultSampler, PreparedWorkload, RunnerConfig,
};
use gemfi_workloads::pi::MonteCarloPi;
use gemfi_workloads::Workload;

/// Prefix-heavy fault population: register bit flips evenly spaced over the
/// *last tenth* of the kernel's committed instructions, alternating between
/// quiet FP registers and live integer registers so the suffixes carry a
/// mix of propagating and non-propagating faults.
fn fault_population(prepared: &PreparedWorkload, experiments: usize) -> Vec<FaultSpec> {
    let committed = prepared.stage_events[4].max(10 * experiments as u64);
    let base = committed - committed / 10;
    let span = committed - base;
    (0..experiments)
        .map(|i| FaultSpec {
            location: if i % 2 == 0 {
                FaultLocation::FpReg { core: 0, reg: (16 + i % 12) as u8 }
            } else {
                FaultLocation::IntReg { core: 0, reg: (i % 24) as u8 }
            },
            thread: 0,
            timing: FaultTiming::Instructions(base + (i as u64 * span) / experiments as u64),
            behavior: FaultBehavior::Flip((i % 48) as u8),
            occurrences: 1,
        })
        .collect()
}

fn whole_run_campaign(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
) -> Vec<Outcome> {
    specs.iter().map(|&spec| run_experiment(prepared, workload, spec, runner).outcome).collect()
}

struct Mode {
    name: &'static str,
    median_secs: f64,
    min_secs: f64,
    experiments: usize,
}

impl Mode {
    fn eps(&self) -> f64 {
        self.experiments as f64 / self.median_secs
    }
}

fn json_report(
    samples: usize,
    points: u64,
    modes: &[Mode; 2],
    forked: usize,
    fallbacks: usize,
    mixed_forked: usize,
    mixed_fallbacks: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fork_prefix\",\n  \"workload\": \"pi\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n  \"points\": {points},\n"));
    out.push_str(&format!(
        "  \"forked_suffixes\": {forked},\n  \"whole_run_fallbacks\": {fallbacks},\n"
    ));
    out.push_str(&format!(
        "  \"mixed_forked\": {mixed_forked},\n  \"mixed_fallbacks\": {mixed_fallbacks},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, m) in modes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"experiments\": {}, \"median_secs\": {:.6}, \
             \"min_secs\": {:.6}, \"experiments_per_sec\": {:.2}}}{}\n",
            m.name,
            m.experiments,
            m.median_secs,
            m.min_secs,
            m.eps(),
            if i + 1 < modes.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!("  ],\n  \"speedup\": {:.3}\n}}\n", modes[1].eps() / modes[0].eps()));
    out
}

fn main() {
    let args = Args::from_env();
    let experiments = args.number("experiments", 24usize);
    let points = args.number("points", 400u64);
    let samples = args.number("samples", 5usize);
    let out_path = args.value_of("out").unwrap_or("BENCH_fork_prefix.json").to_string();

    let workload = MonteCarloPi { points, init_spins: 100, ..MonteCarloPi::default() };
    // The paper's experiment shape: inject under O3, finish atomic. The O3
    // prefix is exactly the redundant work fork-at-injection shares.
    let runner = RunnerConfig::default();
    let fork = ForkConfig { workers: 1, ..ForkConfig::default() };

    let prepared = prepare_workload(&workload).expect("workload prepares");
    let specs = fault_population(&prepared, experiments);

    let planned = plan_suffixes(&prepared, &specs, &runner, &fork);
    let forked = planned.iter().filter(|s| s.forked_at.is_some()).count();
    let fallbacks = planned.len() - forked;
    drop(planned);
    assert!(forked > 0, "no suffix forked — the ablation would compare whole runs to whole runs");

    // The real mixed fault set: every stage's events arrive at their own
    // rate, and the planner must still fork every suffix.
    let mut sampler = FaultSampler::new(42, prepared.stage_events, 0, 0);
    let mixed: Vec<FaultSpec> = (0..experiments).map(|_| sampler.sample_any()).collect();
    let mixed_forked = plan_suffixes(&prepared, &mixed, &runner, &fork)
        .iter()
        .filter(|s| s.forked_at.is_some())
        .count();
    let mixed_fallbacks = mixed.len() - mixed_forked;
    assert_eq!(mixed_fallbacks, 0, "{mixed_fallbacks} sample_any suffixes fell back to whole runs");

    println!(
        "fork_prefix ({experiments} experiments/sample, pi --points {points}, \
         {forked} forked / {fallbacks} fallbacks; sample_any mix {mixed_forked} forked / \
         {mixed_fallbacks} fallbacks)"
    );

    // Conformance spot-check at bench scale: both executors classify the
    // whole population identically.
    let baseline = whole_run_campaign(&prepared, &workload, &specs, &runner);
    let forked_outcomes: Vec<Outcome> =
        run_campaign_forked(&prepared, &workload, &specs, &runner, &fork)
            .into_iter()
            .map(|r| r.outcome)
            .collect();
    assert_eq!(
        baseline, forked_outcomes,
        "fork-at-injection changed experiment outcomes — shared prefixes are no longer transparent"
    );

    let (whole_median, whole_min) = time_it_secs("campaign_whole_run", samples, || {
        whole_run_campaign(&prepared, &workload, &specs, &runner);
    });
    let (fork_median, fork_min) = time_it_secs("campaign_fork_at_injection", samples, || {
        run_campaign_forked(&prepared, &workload, &specs, &runner, &fork);
    });

    let modes = [
        Mode { name: "whole_run", median_secs: whole_median, min_secs: whole_min, experiments },
        Mode {
            name: "fork_at_injection",
            median_secs: fork_median,
            min_secs: fork_min,
            experiments,
        },
    ];
    println!(
        "speedup_fork_prefix                {:.2}x  ({:.1} vs {:.1} experiments/sec)",
        modes[1].eps() / modes[0].eps(),
        modes[1].eps(),
        modes[0].eps(),
    );

    let report =
        json_report(samples, points, &modes, forked, fallbacks, mixed_forked, mixed_fallbacks);
    std::fs::write(&out_path, &report).expect("write BENCH_fork_prefix.json");
    println!("\nwrote {out_path}");
}
