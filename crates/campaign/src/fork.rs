//! Fork-at-injection: shared-prefix campaign execution.
//!
//! Every experiment in a campaign replays an identical fault-free
//! instruction stream from the checkpoint up to its injection point; with
//! CoW restores and dormancy elision landed, that redundant prefix is the
//! dominant cost of a campaign. This module removes it: one *trunk*
//! machine sprints along the fault-free path, and each experiment forks a
//! warm machine ([`gemfi_sim::Machine::fork_with`]) shortly before its
//! fault can fire, running only its divergent *suffix*. Campaign cost
//! becomes O(run-length + Σ suffixes) instead of O(experiments ×
//! run-length).
//!
//! # The horizon sweep
//!
//! The planner keeps every unforked spec pending. Each step it asks the
//! trunk's engine how far each pending spec is from firing, forks every
//! spec that is due (or can never fire), then advances the trunk by the
//! *minimum* safe advance over the specs still pending. Stage events
//! arrive at very different rates, so no single injection order fits a
//! mixed fault set; the minimum never passes any pending spec's window.
//!
//! [`run_campaign_forked`] streams the sweep: each suffix goes to the
//! drive threads over a channel holding two suffixes per worker, and each
//! driven machine comes back to the caller's thread to be classified and
//! dropped, so memory scales with workers, not experiments.
//!
//! # Why the results are bit-identical
//!
//! Three facts compose into the conformance guarantee that
//! `tests/fork_prefix_conformance.rs` pins:
//!
//! 1. **The trunk is state-identical to any experiment's prefix.** Before
//!    a spec's window opens, queue scans never mutate the engine, and the
//!    per-event hooks are value-preserving; so a fault-free engine and an
//!    engine carrying the not-yet-armed spec drive the machine through the
//!    exact same tick stream. [`gemfi::GemFiEngine::fork_with_faults`]
//!    then reconstructs the carried engine's state at the fork point from
//!    the trunk's.
//! 2. **A fork is warm.** [`gemfi_sim::Machine::fork_with`] keeps the
//!    pipeline, branch predictor, tick clock and preempt phase, so the
//!    fork's future tick stream is the trunk's (only the tick-invisible
//!    predecode cache drops, per the never-serialized contract).
//! 3. **The drive loop's decisions are tick-aligned.** Pre-switch
//!    scheduling boundaries are anchored to the *checkpoint* tick (see
//!    `runner::next_boundary`), so a suffix polls `pending_faults()` at
//!    the same absolute ticks a whole run does and switches CPU models at
//!    the identical tick.
//!
//! The planner is conservative where it cannot be exact: fork distance is
//! derived from [`gemfi::FireDistance`] lower bounds with a slack margin,
//! and any spec found already armed (armed from the start, or the trunk
//! overshot because a stage outran [`MAX_EVENTS_PER_TICK`]) falls back to
//! a plain whole-run restore — a perf penalty, never a wrong answer.

use crate::runner::{
    drive, finish, restore, watchdog_budget, ExperimentResult, PreparedWorkload, RunnerConfig,
};
use gemfi::{AbortToken, FaultConfig, FaultSpec, FireDistance, GemFiEngine};
use gemfi_sim::{Machine, RunExit};
use gemfi_workloads::Workload;
use std::sync::{mpsc, Arc, Mutex};

/// Upper bound on matching stage events the guest can serve per tick, used
/// to convert an event-distance into a safe tick advance. While it holds,
/// the horizon sweep never advances the trunk past a pending spec's window.
/// Deliberately generous — underestimating the rate only forks earlier than
/// necessary, and even a violation is caught (every pending spec is
/// re-checked after every advance and falls back to a whole run on
/// overshoot).
pub const MAX_EVENTS_PER_TICK: u64 = 16;

/// Fork-at-injection tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkConfig {
    /// Worker threads driving forked suffixes. `<= 1` plans, drives and
    /// classifies inline (the bench's like-for-like ablation mode).
    pub workers: usize,
    /// Safety margin, in stage events / ticks, kept between the fork point
    /// and the earliest point the fault could fire. Larger values fork
    /// earlier (longer suffixes); smaller values risk overshoot fallbacks.
    pub slack: u64,
}

impl Default for ForkConfig {
    fn default() -> ForkConfig {
        ForkConfig { workers: 1, slack: 512 }
    }
}

/// One experiment's planned execution: a machine positioned at its fork
/// point (or at the checkpoint, for whole-run fallbacks), ready to drive.
#[derive(Debug)]
pub struct ForkedSuffix {
    /// Index of the experiment in the campaign's spec list.
    pub index: usize,
    /// Trunk tick the suffix forked at; `None` for a whole-run fallback
    /// (armed before its fork, or the trunk terminated first).
    pub forked_at: Option<u64>,
    /// The machine to drive: engine loaded with exactly this experiment's
    /// fault, elision configured, watchdog installed.
    pub machine: Machine<GemFiEngine>,
}

/// How far (in safe trunk ticks) a spec is from needing its fork, given a
/// [`FireDistance`] and a slack margin. `0` means fork now; `u64::MAX`
/// means the spec can never fire and may fork anywhere.
fn safe_advance(distance: FireDistance, slack: u64) -> u64 {
    match distance {
        FireDistance::Armed => 0,
        FireDistance::Quiet { events, ticks } => {
            let by_events = if events == u64::MAX {
                u64::MAX
            } else {
                events.saturating_sub(slack) / MAX_EVENTS_PER_TICK
            };
            let by_ticks = if ticks == u64::MAX { u64::MAX } else { ticks.saturating_sub(slack) };
            by_events.min(by_ticks)
        }
    }
}

/// The horizon sweep (see the module docs): hands every experiment's
/// suffix to `emit`, in fork order.
fn plan(
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    fork: &ForkConfig,
    mut emit: impl FnMut(ForkedSuffix),
) {
    let budget = watchdog_budget(&prepared.checkpoint, prepared, runner);
    let start = |faults: &[FaultSpec]| {
        let abort = AbortToken::new();
        restore(&prepared.checkpoint, faults, Some(runner.inject_cpu), budget, runner, &abort)
    };
    // Whole-run fallback: built exactly as `drive_whole_run` builds it.
    let whole_run =
        |index: usize| ForkedSuffix { index, forked_at: None, machine: start(&[specs[index]]) };
    let mut trunk = start(&[]);
    let mut pending: Vec<usize> = (0..specs.len()).collect();
    while !pending.is_empty() {
        let now = trunk.tick();
        let mut horizon = u64::MAX;
        pending.retain(|&index| {
            let distance = trunk.hooks().fire_distance(0, now, &specs[index]);
            match (distance, safe_advance(distance, fork.slack)) {
                // Armed from the start, or overshot: replay it whole.
                (FireDistance::Armed, _) => emit(whole_run(index)),
                // Close enough to fork — or unreachable (`MAX`), in which
                // case the fault is frozen and any fork point is exact.
                (_, 0 | u64::MAX) => {
                    let faults = FaultConfig::from_specs(vec![specs[index]]);
                    let machine = trunk.fork_with(trunk.hooks().fork_with_faults(faults));
                    emit(ForkedSuffix { index, forked_at: Some(now), machine });
                }
                (_, advance) => {
                    horizon = horizon.min(advance);
                    return true;
                }
            }
            false
        });
        if !pending.is_empty() && trunk.run_to_tick(now.saturating_add(horizon)).is_some() {
            // The trunk terminated before the pending specs' injection
            // points: they replay whole.
            pending.drain(..).for_each(|index| emit(whole_run(index)));
        }
    }
}

/// Plans the campaign with the horizon sweep: sprints one fault-free trunk
/// along the shared prefix, forking each experiment's suffix shortly before
/// its fault can fire; specs armed before their fork (or that outlive the
/// trunk) fall back to whole-run restores. Returns the suffixes in fork
/// order, each carrying its experiment `index` ([`run_campaign_forked`]
/// streams them instead).
pub fn plan_suffixes(
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    fork: &ForkConfig,
) -> Vec<ForkedSuffix> {
    let mut out = Vec::with_capacity(specs.len());
    plan(prepared, specs, runner, fork, |suffix| out.push(suffix));
    out
}

/// Drives one planned suffix to completion under `abort`, exactly like the
/// whole-run path: same drive loop, same checkpoint-anchored scheduling
/// grid. Returns the terminal exit and whether the abort cut it short.
pub fn drive_suffix(
    suffix: &mut ForkedSuffix,
    prepared: &PreparedWorkload,
    runner: &RunnerConfig,
    abort: &AbortToken,
) -> (RunExit, bool) {
    suffix.machine.hooks_mut().set_abort_token(abort.clone());
    drive(&mut suffix.machine, runner, abort, prepared.checkpoint.tick(), None)
}

/// One driven suffix, awaiting classification.
type Driven = (usize, Machine<GemFiEngine>, (RunExit, bool));

/// Runs a whole campaign fork-at-injection style: plan, drive (optionally
/// across [`ForkConfig::workers`] threads) and classify as one pipeline,
/// holding only a bounded window of machines at a time. Results come back
/// in experiment order and are element-wise equivalent to running
/// [`crate::runner::run_experiment`] per spec — bit-identical machine
/// states included, which `tests/fork_prefix_conformance.rs` enforces.
pub fn run_campaign_forked(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    fork: &ForkConfig,
) -> Vec<ExperimentResult> {
    let drive_one = |mut suffix: ForkedSuffix| -> Driven {
        let driven = drive_suffix(&mut suffix, prepared, runner, &AbortToken::new());
        (suffix.index, suffix.machine, driven)
    };
    let origin = prepared.checkpoint.tick();
    let mut results: Vec<Option<ExperimentResult>> = specs.iter().map(|_| None).collect();
    let mut classify = |(index, machine, driven): Driven| {
        let spec = specs[index];
        results[index] = Some(finish(&machine, origin, prepared, workload, spec, driven, None));
    };
    if fork.workers <= 1 {
        plan(prepared, specs, runner, fork, |suffix| classify(drive_one(suffix)));
    } else {
        // Two queued suffixes per worker keep every worker busy while the
        // trunk advances. Classification stays here (`&dyn Workload` need
        // not be `Sync`), so workers hand driven machines back.
        let (work_tx, work_rx) = mpsc::sync_channel::<ForkedSuffix>(2 * fork.workers);
        let (done_tx, done_rx) = mpsc::channel::<Driven>();
        // Owned by the workers alone: if all die, `send` fails, not blocks.
        let work_rx = Arc::new(Mutex::new(work_rx));
        std::thread::scope(|scope| {
            for _ in 0..fork.workers {
                let (work_rx, done_tx) = (Arc::clone(&work_rx), done_tx.clone());
                scope.spawn(move || loop {
                    let next = work_rx.lock().expect("queue lock").recv();
                    let Ok(suffix) = next else { break };
                    done_tx.send(drive_one(suffix)).expect("the caller outlives its workers");
                });
            }
            drop((work_rx, done_tx));
            plan(prepared, specs, runner, fork, |suffix| {
                work_tx.send(suffix).expect("a drive worker is running");
                done_rx.try_iter().for_each(&mut classify);
            });
            drop(work_tx);
            done_rx.iter().for_each(&mut classify);
        });
    }
    results.into_iter().map(|r| r.expect("every planned experiment was driven")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{prepare_workload, run_experiment};
    use crate::sampler::FaultSampler;
    use gemfi::{FaultBehavior, FaultLocation, FaultTiming};
    use gemfi_workloads::pi::MonteCarloPi;

    fn small_pi() -> MonteCarloPi {
        MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() }
    }

    fn late_fp_flip(p: &crate::runner::PreparedWorkload, offset: u64) -> FaultSpec {
        FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4].saturating_sub(offset)),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        }
    }

    /// Runs `specs` forked with `workers` drive threads and checks every
    /// result, in experiment order, against a per-spec whole run.
    fn assert_matches_whole_runs(specs: &[FaultSpec], workers: usize) {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig::default();
        let fork = ForkConfig { workers, ..ForkConfig::default() };
        let forked = run_campaign_forked(&p, &w, specs, &runner, &fork);
        assert_eq!(forked.len(), specs.len());
        for (i, (spec, got)) in specs.iter().zip(&forked).enumerate() {
            let whole = run_experiment(&p, &w, *spec, &runner);
            let tag = format!("workers={workers} spec#{i} {spec}");
            assert_eq!(got.spec, *spec, "{tag}: results out of experiment order");
            assert_eq!(got.outcome, whole.outcome, "{tag}");
            assert_eq!(got.exit, whole.exit, "{tag}");
            assert_eq!(got.ticks, whole.ticks, "{tag}");
            assert_eq!(got.injections, whole.injections, "{tag}");
            assert_eq!(got.output, whole.output, "{tag}");
        }
    }

    #[test]
    fn forked_campaign_matches_whole_runs() {
        let p = prepare_workload(&small_pi()).unwrap();
        let specs = [late_fp_flip(&p, 100), late_fp_flip(&p, 400), late_fp_flip(&p, 50)];
        assert_matches_whole_runs(&specs, 1);
    }

    #[test]
    fn streamed_mixed_campaign_matches_whole_runs_at_any_worker_count() {
        let p = prepare_workload(&small_pi()).unwrap();
        let mut sampler = FaultSampler::new(42, p.stage_events, 0, 0);
        let specs: Vec<FaultSpec> = (0..24).map(|_| sampler.sample_any()).collect();
        for workers in [1, 3] {
            assert_matches_whole_runs(&specs, workers);
        }
    }

    #[test]
    fn late_faults_actually_fork_and_parallel_agrees_with_sequential() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig::default();
        let specs = vec![late_fp_flip(&p, 60), late_fp_flip(&p, 200)];
        let planned = plan_suffixes(&p, &specs, &runner, &ForkConfig::default());
        assert!(
            planned.iter().any(|s| s.forked_at.is_some()),
            "late faults must fork, not fall back"
        );
        for s in planned.iter().filter(|s| s.forked_at.is_some()) {
            assert!(s.forked_at.unwrap() > p.checkpoint.tick(), "fork lies past the checkpoint");
        }
        let seq = run_campaign_forked(&p, &w, &specs, &runner, &ForkConfig::default());
        let par =
            run_campaign_forked(&p, &w, &specs, &runner, &ForkConfig { workers: 3, slack: 512 });
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.ticks, b.ticks);
            assert_eq!(a.injections, b.injections);
        }
    }

    #[test]
    fn armed_spec_falls_back_to_a_whole_run() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig::default();
        // Inst:0 is armed the moment its thread activates: never forkable.
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(0),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let planned = plan_suffixes(&p, &[spec], &runner, &ForkConfig::default());
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].forked_at, None, "armed spec must replay whole");
        let results = run_campaign_forked(&p, &w, &[spec], &runner, &ForkConfig::default());
        let whole = run_experiment(&p, &w, spec, &runner);
        assert_eq!(results[0].outcome, whole.outcome);
        assert_eq!(results[0].ticks, whole.ticks);
    }
}
