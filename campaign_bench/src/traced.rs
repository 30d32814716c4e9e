//! The traced run: one untraced campaign through the real path, then a
//! replay of the same experiments with spans at every layer boundary.
//!
//! Every replayed experiment runs twice: once through the program's own
//! executor (`run_experiment`, or `plan_suffixes` + `drive_suffix` on
//! `fork-canneal`), which gives the untraced executor time and the
//! reference result, and once through the traced replica in
//! [`crate::replay`]. The replica must reproduce the reference exactly;
//! if it does not, the phase split is reported invalid and no numbers are
//! printed.

use crate::campaigns::{
    check_baseline, fold_adaptive, fork_config, guest, par_map, run_campaign, sample_specs,
    CampaignRun, Kind, Verdict, WORKERS,
};
use crate::replay::{replay_suffix, replay_whole_run, Replayed, PHASES};
use crate::report::{self, Metric, Provenance};
use crate::trace::{barrier_idle_share, idle_share, quantile, self_times, Span, Tracer};
use crate::Args;
use gemfi::{AbortToken, FaultLocation, FaultSpec};
use gemfi_campaign::journal::spec_digest;
use gemfi_campaign::{
    classify, drive_suffix, plan_suffixes, prepare_workload, run_experiment, ExperimentResult,
    ForkedSuffix, LocationClass, PreparedWorkload, RunnerConfig,
};
use gemfi_workloads::Workload;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The Fig. 5 location class a sampled fault belongs to.
fn class_of(spec: &FaultSpec) -> Option<LocationClass> {
    Some(match spec.location {
        FaultLocation::IntReg { .. } => LocationClass::IntReg,
        FaultLocation::FpReg { .. } => LocationClass::FpReg,
        FaultLocation::Fetch { .. } => LocationClass::Fetch,
        FaultLocation::Decode { .. } => LocationClass::Decode,
        FaultLocation::Execute { .. } => LocationClass::Execute,
        FaultLocation::Mem { .. } => LocationClass::Mem,
        FaultLocation::Pc { .. } => LocationClass::Pc,
        _ => return None,
    })
}

fn class_index(class: LocationClass) -> usize {
    LocationClass::ALL.iter().position(|c| *c == class).expect("class is in ALL")
}

/// One replayed experiment.
struct Exp {
    class: LocationClass,
    /// Executor seconds without tracing (`run_experiment`, or
    /// `drive_suffix` plus classification).
    untraced_s: f64,
    replayed: Replayed,
}

/// What the fork planner did with a fault set.
#[derive(Default)]
struct PlanStats {
    plan_s: f64,
    /// Per planned suffix: its class and whether it forked.
    planned: Vec<(LocationClass, bool)>,
    /// Suffixes alive at once before the first drive: everything
    /// `plan_suffixes` returns (`fork-canneal` only; whole runs hold none).
    held: usize,
    /// Drive seconds of whole-run fallbacks and of all suffixes, and the
    /// simulated ticks each suffix ran (`fork-canneal` only, where the
    /// suffixes are driven).
    fallback_drive_s: f64,
    drive_s: f64,
    suffix_ticks: Vec<u64>,
}

/// The replay of one campaign's experiments.
#[derive(Default)]
struct Replay {
    /// Experiments per round (fixed-n campaigns are one round).
    rounds: Vec<Vec<Exp>>,
    /// Spans, one list per tracer (parent indices are per list).
    spans: Vec<Vec<Span>>,
    plan: PlanStats,
    /// Why the replica differs from the program, if it does.
    invalid: Option<String>,
}

impl Replay {
    fn note_mismatch(&mut self, exp: usize, replayed: &Replayed, reference: &ExperimentResult) {
        if self.invalid.is_none() {
            if let Some(why) = replayed.mismatch(reference) {
                self.invalid = Some(format!("experiment {exp}: {why}"));
            }
        }
    }

    fn exps(&self) -> impl Iterator<Item = &Exp> {
        self.rounds.iter().flatten()
    }
}

fn classes(specs: &[FaultSpec]) -> Result<Vec<LocationClass>, String> {
    specs
        .iter()
        .map(|s| class_of(s).ok_or_else(|| format!("fault outside the location classes: {s}")))
        .collect()
}

/// Plans `specs` with the fork planner (without driving) for the fork mix
/// of a whole-run workload.
fn plan_only(
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    stats: &mut PlanStats,
) -> Result<(), String> {
    let classes = classes(specs)?;
    let t = Instant::now();
    let suffixes = plan_suffixes(prepared, specs, runner, &fork_config());
    stats.plan_s += t.elapsed().as_secs_f64();
    stats.planned.extend(suffixes.iter().map(|s| (classes[s.index], s.forked_at.is_some())));
    Ok(())
}

/// Runs `untraced` and `traced` back to back on one thread, alternating
/// which goes first by `i` so neither side always runs on warmer caches.
fn paired<A, B>(i: usize, untraced: impl FnOnce() -> A, traced: impl FnOnce() -> B) -> (A, B) {
    if i.is_multiple_of(2) {
        let a = untraced();
        (a, traced())
    } else {
        let b = traced();
        (untraced(), b)
    }
}

/// Runs one round of whole-run experiments, each untraced and traced,
/// appending to `replay`; returns the untraced results.
fn whole_run_round(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    epoch: Instant,
    replay: &mut Replay,
) -> Result<Vec<ExperimentResult>, String> {
    let runner = RunnerConfig::default();
    let classes = classes(specs)?;
    let first = replay.exps().count();
    let (pairs, tracers) = par_map(
        specs,
        WORKERS,
        || Tracer::new(epoch),
        |tracer, i, s| {
            paired(
                i,
                || {
                    let t = Instant::now();
                    let r = run_experiment(prepared, workload, *s, &runner);
                    (r, t.elapsed().as_secs_f64())
                },
                || replay_whole_run(prepared, workload, *s, &runner, tracer, (first + i) as u64),
            )
        },
    );
    replay.spans.extend(tracers.into_iter().map(Tracer::into_spans));
    let mut round = Vec::with_capacity(specs.len());
    let mut reference = Vec::with_capacity(specs.len());
    for (i, ((r, secs), replayed)) in pairs.into_iter().enumerate() {
        replay.note_mismatch(first + i, &replayed, &r);
        round.push(Exp { class: classes[i], untraced_s: secs, replayed });
        reference.push(r);
    }
    replay.rounds.push(round);
    plan_only(prepared, specs, &runner, &mut replay.plan)?;
    Ok(reference)
}

/// One suffix driven by the program's own `drive_suffix`, then classified.
struct Driven {
    forked: bool,
    drive_s: f64,
    exp_s: f64,
    suffix_ticks: u64,
    result: Replayed,
}

fn drive_untraced(
    mut s: ForkedSuffix,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    runner: &RunnerConfig,
) -> Driven {
    let start_tick = s.forked_at.unwrap_or(prepared.checkpoint.tick());
    let t = Instant::now();
    let (exit, _) = drive_suffix(&mut s, prepared, runner, &AbortToken::new());
    let drive_s = t.elapsed().as_secs_f64();
    let output = s
        .machine
        .mem()
        .read_slice(prepared.guest.output_addr(), prepared.guest.output_len)
        .unwrap_or_default();
    let records = s.machine.hooks().records();
    let outcome = classify(workload, &prepared.golden.bytes, exit, &output, records);
    Driven {
        forked: s.forked_at.is_some(),
        drive_s,
        exp_s: t.elapsed().as_secs_f64(),
        suffix_ticks: s.machine.tick() - start_tick,
        result: Replayed {
            outcome,
            exit,
            ticks: s.machine.tick(),
            injections: records.to_vec(),
            phases: Default::default(),
            switched: false,
        },
    }
}

/// `fork-canneal`: the fault set is planned twice. One plan's suffixes go
/// through the program's `drive_suffix`, the other's through the traced
/// replica, pairwise on the same thread; both are checked against
/// whole-run `run_experiment` results.
fn fork_replay(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    epoch: Instant,
    replay: &mut Replay,
) -> Result<Vec<ExperimentResult>, String> {
    let runner = RunnerConfig::default();
    let classes = classes(specs)?;
    let (reference, _) =
        par_map(specs, WORKERS, || (), |_, _, s| run_experiment(prepared, workload, *s, &runner));

    let t = Instant::now();
    let suffixes = plan_suffixes(prepared, specs, &runner, &fork_config());
    let plan = &mut replay.plan;
    plan.plan_s = t.elapsed().as_secs_f64();
    plan.held = suffixes.len();
    plan.planned = suffixes.iter().map(|s| (classes[s.index], s.forked_at.is_some())).collect();
    let twins = plan_suffixes(prepared, specs, &runner, &fork_config());
    let slots: Vec<Mutex<Option<(ForkedSuffix, ForkedSuffix)>>> =
        suffixes.into_iter().zip(twins).map(|pair| Mutex::new(Some(pair))).collect();
    let (pairs, tracers) = par_map(
        &slots,
        WORKERS,
        || Tracer::new(epoch),
        |tracer, i, slot| {
            let (a, b) = slot.lock().expect("suffix slot").take().expect("suffix driven once");
            let index = a.index;
            assert_eq!(index, b.index, "the planner is deterministic");
            let (driven, replayed) = paired(
                i,
                || drive_untraced(a, prepared, workload, &runner),
                || replay_suffix(b, prepared, workload, &runner, tracer),
            );
            (index, driven, replayed)
        },
    );
    replay.spans.extend(tracers.into_iter().map(Tracer::into_spans));
    let mut round: Vec<Option<Exp>> = (0..specs.len()).map(|_| None).collect();
    for (index, driven, replayed) in pairs {
        if let Some(why) = driven.result.mismatch(&reference[index]) {
            return Err(format!(
                "drive_suffix result differs from run_experiment on experiment {index}: {why}"
            ));
        }
        replay.note_mismatch(index, &replayed, &reference[index]);
        let plan = &mut replay.plan;
        plan.drive_s += driven.drive_s;
        if !driven.forked {
            plan.fallback_drive_s += driven.drive_s;
        }
        plan.suffix_ticks.push(driven.suffix_ticks);
        round[index] = Some(Exp { class: classes[index], untraced_s: driven.exp_s, replayed });
    }
    replay.rounds.push(round.into_iter().map(|e| e.expect("every suffix replayed")).collect());
    Ok(reference)
}

/// Sums of span self time by name, of `exp` spans by class, each
/// experiment's traced time, and the largest per-experiment `exec.drive`
/// self time (the part of a drive span its phase spans do not cover).
struct SpanTotals {
    self_s: std::collections::BTreeMap<&'static str, f64>,
    exp_s: f64,
    exp_by_class: [f64; 7],
    traced_s: Vec<f64>,
    max_drive_gap_s: f64,
}

fn span_totals(replay: &Replay, class_by_exp: &[LocationClass]) -> SpanTotals {
    let mut totals = SpanTotals {
        self_s: Default::default(),
        exp_s: 0.0,
        exp_by_class: [0.0; 7],
        traced_s: vec![0.0; class_by_exp.len()],
        max_drive_gap_s: 0.0,
    };
    for spans in &replay.spans {
        for (span, self_s) in spans.iter().zip(self_times(spans)) {
            *totals.self_s.entry(span.name).or_default() += self_s;
            match span.name {
                "exp" => {
                    totals.exp_s += span.secs();
                    totals.traced_s[span.exp as usize] += span.secs();
                    totals.exp_by_class[class_index(class_by_exp[span.exp as usize])] +=
                        span.secs();
                }
                "exec.drive" => totals.max_drive_gap_s = totals.max_drive_gap_s.max(self_s),
                _ => {}
            }
        }
    }
    totals
}

/// Runs the traced mode for `args.kind`.
pub fn run(args: &Args, work: &Path) -> Result<report::Result, String> {
    let kind = args.kind;
    let campaign =
        run_campaign(kind, args.seed, &work.join("campaign")).map_err(|e| e.to_string())?;

    let guest = guest(kind.guest_name());
    let prepared = prepare_workload(guest.as_ref())?;
    let epoch = Instant::now();
    let mut replay = Replay::default();
    let (expected, specs): (Verdict, Vec<FaultSpec>) = match kind {
        Kind::SpoolDct => {
            let specs = sample_specs(&prepared, args.seed, kind.experiments().expect("fixed-n"));
            let results = whole_run_round(&prepared, guest.as_ref(), &specs, epoch, &mut replay)?;
            (Verdict::Fixed(results.iter().map(|r| (r.outcome, r.ticks)).collect()), specs)
        }
        Kind::ForkCanneal => {
            let specs = sample_specs(&prepared, args.seed, kind.experiments().expect("fixed-n"));
            let results = fork_replay(&prepared, guest.as_ref(), &specs, epoch, &mut replay)?;
            (Verdict::Fixed(results.iter().map(|r| (r.outcome, r.ticks)).collect()), specs)
        }
        Kind::ServePiAdaptive => {
            let (summary, rounds) = fold_adaptive(&prepared, args.seed, |specs| {
                whole_run_round(&prepared, guest.as_ref(), specs, epoch, &mut replay)
            })?;
            let specs = rounds.iter().flatten().map(|r| r.spec).collect();
            (Verdict::Adaptive(summary), specs)
        }
    };
    if let Some(why) = &replay.invalid {
        return Err(format!(
            "phase split invalid: the traced replica diverged from the program ({why}); \
             no per-layer numbers are reported"
        ));
    }
    let baseline = check_baseline(kind, args.seed, &campaign.verdict);
    let correct = campaign.verdict == expected && baseline.is_ok();
    println!(
        "workload {} seed {} (traced): {} experiments replayed, campaign verdict {} the reference",
        kind.name(),
        args.seed,
        replay.exps().count(),
        if campaign.verdict == expected { "equals" } else { "DIFFERS FROM" }
    );
    if let Err(why) = &baseline {
        println!("{why}");
    }
    Provenance {
        kind,
        seed: args.seed,
        spec_digest: spec_digest(&specs),
        checkpoint_digest: prepared.checkpoint.digest(),
    }
    .print();
    let metrics = per_layer(kind, &campaign, &replay, &specs)?;
    println!("{:<36} {:>16}  unit", "metric", "value");
    for m in &metrics {
        println!("{:<36} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    Ok(report::Result {
        correct,
        attempted: campaign.experiments(),
        failed: campaign.failed(),
        metrics,
    })
}

fn per_layer(
    kind: Kind,
    campaign: &CampaignRun,
    replay: &Replay,
    specs: &[FaultSpec],
) -> Result<Vec<Metric>, String> {
    let class_by_exp = classes(specs)?;
    let totals = span_totals(replay, &class_by_exp);
    let share = |name: &str| totals.self_s.get(name).copied().unwrap_or(0.0) / totals.exp_s;
    let exps: Vec<&Exp> = replay.exps().collect();
    let n = exps.len() as f64;
    let untraced: Vec<f64> = exps.iter().map(|e| e.untraced_s).collect();
    let untraced_sum: f64 = untraced.iter().sum();
    let overhead_s = totals.exp_s - untraced_sum;
    let work = |phase: usize| -> (u64, u64) {
        exps.iter().fold((0, 0), |(t, i), e| {
            (t + e.replayed.phases[phase].ticks, i + e.replayed.phases[phase].instret)
        })
    };
    let rate = |phase: usize, scale: f64| {
        let secs = totals.self_s.get(PHASES[phase]).copied().unwrap_or(0.0);
        if secs > 0.0 {
            work(phase).1 as f64 / secs / scale
        } else {
            0.0
        }
    };
    let plan = &replay.plan;
    let forked = plan.planned.iter().filter(|p| p.1).count() as f64;
    let (rounds, exp_to_decision) = match &campaign.verdict {
        Verdict::Fixed(rows) => (1, rows.len() as u64),
        Verdict::Adaptive(s) => (s.rounds, s.experiments),
    };
    let round_times: Vec<Vec<f64>> =
        replay.rounds.iter().map(|r| r.iter().map(|e| e.untraced_s).collect()).collect();

    // Each experiment's traced-minus-untraced time, in absolute value: the
    // tracing overhead plus host noise, never negative.
    let pair_overhead_s =
        exps.iter().zip(&totals.traced_s).map(|(e, t)| (t - e.untraced_s).abs()).sum::<f64>() / n;
    if totals.max_drive_gap_s > pair_overhead_s {
        return Err(format!(
            "phase split invalid: a drive span has {:.3} ms its phase spans do not cover, more \
             than the mean tracing overhead of {:.3} ms per experiment; no per-layer numbers are \
             reported",
            totals.max_drive_gap_s * 1e3,
            pair_overhead_s * 1e3
        ));
    }
    println!(
        "phase spans cover each drive span to within {:.3} ms, within the mean tracing overhead \
         of {:.3} ms per experiment (net {:.2}% of untraced executor time)",
        totals.max_drive_gap_s * 1e3,
        pair_overhead_s * 1e3,
        overhead_s / untraced_sum * 100.0
    );

    let mut m = vec![
        Metric::new("setup.prepare_s", campaign.prepare_s, "s"),
        Metric::new("setup.seed_s", campaign.seed_s, "s"),
        Metric::new("exec.exp_ms.p50", quantile(&untraced, 0.5) * 1e3, "ms"),
        Metric::new("exec.exp_ms.p95", quantile(&untraced, 0.95) * 1e3, "ms"),
        Metric::new("exec.restore.share", share("exec.restore"), "fraction"),
        Metric::new("exec.o3_prefault.share", share(PHASES[0]), "fraction"),
        Metric::new("exec.o3_prefault.ticks", work(0).0 as f64, "ticks"),
        Metric::new("exec.o3_prefault.kips", rate(0, 1e3), "kinstr/s"),
        Metric::new("exec.o3_postfault.share", share(PHASES[1]), "fraction"),
        Metric::new("exec.o3_postfault.ticks", work(1).0 as f64, "ticks"),
        Metric::new(
            "exec.unswitched_frac",
            exps.iter().filter(|e| !e.replayed.switched).count() as f64 / n,
            "fraction",
        ),
        Metric::new("exec.atomic.share", share(PHASES[2]), "fraction"),
        Metric::new("exec.atomic.mips", rate(2, 1e6), "Minstr/s"),
        Metric::new("exec.classify.share", share("exec.classify"), "fraction"),
        Metric::new("fork.plan_s", plan.plan_s, "s"),
        Metric::new("fork.forked_frac", forked / plan.planned.len() as f64, "fraction"),
        Metric::new(
            "fork.fallback_drive.share",
            if plan.drive_s > 0.0 { plan.fallback_drive_s / plan.drive_s } else { 0.0 },
            "fraction",
        ),
        Metric::new(
            "fork.suffix_ticks.mean",
            if plan.suffix_ticks.is_empty() {
                0.0
            } else {
                plan.suffix_ticks.iter().sum::<u64>() as f64 / plan.suffix_ticks.len() as f64
            },
            "ticks",
        ),
        Metric::new("fork.held_machines", plan.held as f64, "count"),
        Metric::new(
            "transport.idle_share",
            if campaign.transport_window_s > 0.0 {
                idle_share(campaign.busy_cpu_s, campaign.transport_window_s, WORKERS)
            } else {
                0.0
            },
            "fraction",
        ),
        Metric::new("transport.retries", campaign.retries as f64, "count"),
        Metric::new("transport.reclaimed_leases", campaign.reclaimed as f64, "count"),
        Metric::new(
            "journal.bytes_per_exp",
            campaign.journal_bytes as f64 / campaign.experiments() as f64,
            "bytes",
        ),
        Metric::new("adaptive.exp_to_decision", exp_to_decision as f64, "count"),
        Metric::new("adaptive.rounds", rounds as f64, "count"),
        Metric::new(
            "adaptive.barrier_idle.share",
            barrier_idle_share(&round_times, WORKERS),
            "fraction",
        ),
        Metric::new("trace.overhead_s", overhead_s, "s"),
    ];

    println!(
        "{:<10} {:>6} {:>12} {:>14}  ({})",
        "class",
        "specs",
        "exec share",
        "forked_frac",
        kind.name()
    );
    for class in LocationClass::ALL {
        let c = class_index(class);
        let count = exps.iter().filter(|e| e.class == class).count();
        let planned = plan.planned.iter().filter(|p| p.0 == class).count();
        let forked = plan.planned.iter().filter(|p| p.0 == class && p.1).count();
        let forked_frac = if planned > 0 { forked as f64 / planned as f64 } else { 0.0 };
        let exec_share = totals.exp_by_class[c] / totals.exp_s;
        println!("{:<10} {count:>6} {exec_share:>12.4} {forked_frac:>14.4}", class.to_string());
        m.push(Metric::new(format!("sampler.class.{class}.n"), count as f64, "count"));
        m.push(Metric::new(format!("exec.class.{class}.share"), exec_share, "fraction"));
        m.push(Metric::new(format!("fork.class.{class}.forked_frac"), forked_frac, "fraction"));
    }
    Ok(m)
}
