//! The experiment runner: checkpoint preparation and single-experiment
//! execution (Sec. IV-B methodology).

use crate::classify::classify;
use gemfi::{AbortToken, FaultConfig, FaultSpec, GemFiEngine, InjectionRecord, Outcome};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Checkpoint, Machine, MachineConfig, RunExit};
use gemfi_workloads::{workload_machine_config, GuestWorkload, RunOutput, Workload};
use std::sync::Arc;

/// Everything a campaign needs about one workload, produced once and shared
/// by all experiments.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// The built guest program.
    pub guest: GuestWorkload,
    /// Snapshot taken at the `fi_read_init_all()` marker (post-boot,
    /// post-initialization — the Fig. 3 fast-forward point). Shared: every
    /// experiment restores straight from this one immutable checkpoint —
    /// restoring bumps page refcounts instead of copying guest memory.
    pub checkpoint: Arc<Checkpoint>,
    /// The fault-free reference run (output bytes, stats).
    pub golden: RunOutput,
    /// Instructions served per pipeline stage during the fault-injection
    /// window — the samplable fault space.
    pub stage_events: [u64; 5],
    /// Ticks from machine boot to the checkpoint (the initialization cost
    /// that checkpointing amortizes away, Fig. 8).
    pub boot_ticks: u64,
    /// Fault-free ticks from the checkpoint to termination.
    pub kernel_ticks: u64,
}

/// How experiments are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// CPU model used around the injection point (the paper uses O3).
    pub inject_cpu: CpuKind,
    /// CPU model used to fast-forward after the fault commits or squashes
    /// (the paper switches to atomic simple).
    pub finish_cpu: CpuKind,
    /// Extra ticks to run in the injection model after the last fault fires,
    /// letting it commit or squash before the switch.
    pub switch_grace: u64,
    /// Watchdog budget as a multiple of the fault-free kernel ticks.
    pub watchdog_factor: u64,
    /// Scheduling granularity in ticks while the engine can still observe
    /// something. Once the engine reports itself fully dormant the loop
    /// switches to horizon-sized chunks ([`DORMANT_CHUNK_FACTOR`]× larger):
    /// nothing can fire, so fine-grained polling buys nothing but abort
    /// latency.
    pub chunk: u64,
    /// Drive restored machines with the dormancy-elision fast path
    /// (architecturally invisible; disable for the ablation benchmark).
    pub elide: bool,
    /// Execute superblock translations inside dormant sprints
    /// (architecturally invisible; disable for the ablation benchmark).
    pub superblock: bool,
}

/// How much coarser the chunk granularity gets once the engine is dormant.
pub const DORMANT_CHUNK_FACTOR: u64 = 50;

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            inject_cpu: CpuKind::O3,
            finish_cpu: CpuKind::Atomic,
            switch_grace: 2_000,
            watchdog_factor: 30,
            chunk: 20_000,
            elide: true,
            superblock: true,
        }
    }
}

/// The record of one completed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The injected fault.
    pub spec: FaultSpec,
    /// The classified outcome.
    pub outcome: Outcome,
    /// How the run terminated.
    pub exit: RunExit,
    /// Injection records (what was corrupted, and the affected instruction).
    pub injections: Vec<InjectionRecord>,
    /// The output region at termination (possibly partial after a crash).
    pub output: Vec<u8>,
    /// Total simulated ticks of this run (from boot, including the
    /// checkpointed prefix).
    pub ticks: u64,
    /// Normalized injection time actually observed: fraction of the
    /// fault-free kernel at which the (first) fault fired.
    pub injection_fraction: Option<f64>,
}

/// Builds the guest, runs to the checkpoint marker, snapshots, and finishes
/// a fault-free golden run, profiling the fault space along the way.
///
/// # Errors
///
/// Returns a message when the workload does not reach its checkpoint marker
/// or does not terminate cleanly.
pub fn prepare_workload(workload: &dyn Workload) -> Result<PreparedWorkload, String> {
    prepare_workload_with(workload, workload_machine_config(CpuKind::Atomic))
}

/// [`prepare_workload`] with an explicit machine configuration (the
/// `restore_fanout` bench uses this to flip [`gemfi_mem::MemConfig::cow`]
/// for its flat-clone ablation).
///
/// # Errors
///
/// Returns a message when the workload does not reach its checkpoint marker
/// or does not terminate cleanly.
pub fn prepare_workload_with(
    workload: &dyn Workload,
    machine_config: MachineConfig,
) -> Result<PreparedWorkload, String> {
    let guest = workload.build();
    // Profile with a faultless engine: its per-stage counters measure the
    // fault space between the fi_activate markers.
    let engine = GemFiEngine::new(FaultConfig::empty());
    let mut machine = Machine::boot(machine_config, &guest.program, engine)
        .map_err(|t| format!("{}: image does not fit: {t}", workload.name()))?;

    let exit = machine.run();
    if exit != RunExit::CheckpointRequest {
        return Err(format!(
            "{}: expected a fi_read_init_all checkpoint, got {exit}",
            workload.name()
        ));
    }
    let checkpoint = Arc::new(machine.checkpoint());
    let boot_ticks = machine.tick();

    let mut exit = machine.run();
    while exit == RunExit::CheckpointRequest {
        exit = machine.run();
    }
    if exit != RunExit::Halted(0) {
        return Err(format!("{}: golden run ended with {exit}", workload.name()));
    }
    let bytes = machine
        .mem()
        .read_slice(guest.output_addr(), guest.output_len)
        .expect("output region mapped");
    let golden =
        RunOutput { exit, bytes, console: machine.console().to_vec(), stats: machine.stats() };
    let stage_events = machine.hooks().stage_events();
    let kernel_ticks = machine.tick() - boot_ticks;
    Ok(PreparedWorkload { guest, checkpoint, golden, stage_events, boot_ticks, kernel_ticks })
}

/// The tick budget for one experiment: checkpoint time plus a multiple of
/// the fault-free kernel time, plus slack for the grace window.
pub(crate) fn watchdog_budget(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    config: &RunnerConfig,
) -> u64 {
    checkpoint
        .tick()
        .saturating_add(prepared.kernel_ticks.saturating_mul(config.watchdog_factor))
        .saturating_add(1_000_000)
}

/// Builds an experiment machine: a fresh engine holding `faults` and
/// `abort` (the `fi_read_init_all` restore semantics: every experiment
/// re-reads its fault configuration), `checkpoint` restored in place with
/// the CPU override and the absolute watchdog `budget` (corrupted control
/// flow loops forever), then every [`RunnerConfig`] knob applied.
///
/// Every machine the crate drives — whole runs, multi-fault runs, snapshot
/// fresh starts and resumes, the fork trunk and its whole-run fallbacks —
/// comes from here, so a knob applied to one path is applied to all. The
/// machine-level knobs are never serialized, so skipping this step on any
/// path silently runs it with the checkpoint's defaults.
pub(crate) fn restore(
    checkpoint: &Checkpoint,
    faults: &[FaultSpec],
    cpu: Option<CpuKind>,
    budget: u64,
    config: &RunnerConfig,
    abort: &AbortToken,
) -> Machine<GemFiEngine> {
    let mut engine = GemFiEngine::new(FaultConfig::from_specs(faults.to_vec()));
    engine.set_abort_token(abort.clone());
    let mut machine = Machine::restore_with(checkpoint, cpu, Some(budget), engine);
    machine.set_elide(config.elide);
    machine.set_superblock(config.superblock);
    machine
}

/// The first scheduling boundary strictly after `tick` on the absolute grid
/// `{origin + n·granularity}`.
///
/// Anchoring boundaries to the *checkpoint's* tick rather than to wherever
/// the loop happens to stand makes the pre-switch polling schedule a pure
/// function of the machine's execution: a suffix forked mid-run lands on
/// the same grid as a whole run from the checkpoint, so both observe "the
/// fault has fired" at the identical tick and switch CPU models at the
/// identical tick — the load-bearing half of fork-at-injection's
/// bit-identical guarantee.
fn next_boundary(tick: u64, origin: u64, granularity: u64) -> u64 {
    let rel = tick.saturating_sub(origin);
    origin.saturating_add((rel / granularity + 1).saturating_mul(granularity))
}

/// A per-chunk hook on a driven machine: sees the machine and whether the
/// CPU switch has happened, and must not advance the machine.
pub(crate) type ChunkObserver<'a> = dyn FnMut(&Machine<GemFiEngine>, bool) + 'a;

/// Drives a restored machine to completion: the switch-grace/model-switch
/// protocol, horizon-aware chunked scheduling, and abort polling — the one
/// loop every experiment path runs. `origin` is the checkpoint tick the
/// experiment descends from; pre-switch boundaries are anchored to it (see
/// [`next_boundary`]).
///
/// Pre-switch polling always runs at the fine granularity, even while the
/// engine is dormant: the boundary at which `pending_faults() == 0` is
/// first observed decides the CPU-switch tick, so it must not depend on a
/// dormancy observation a forked suffix (whose engine starts with its fault
/// queued) would make differently. Once switched, boundaries are
/// state-neutral and the dormant coarsening is pure abort-latency tuning.
///
/// `observer`, when given, is invoked once per scheduling chunk; the
/// mid-run snapshot policy ([`crate::snapshot`]) hangs off it.
///
/// Returns the terminal exit and whether the abort token cut the run short.
pub(crate) fn drive(
    machine: &mut Machine<GemFiEngine>,
    config: &RunnerConfig,
    abort: &AbortToken,
    origin: u64,
    mut observer: Option<&mut ChunkObserver<'_>>,
) -> (RunExit, bool) {
    let mut switched = config.inject_cpu == config.finish_cpu;
    loop {
        if abort.is_aborted() {
            return (RunExit::Watchdog, true);
        }
        if let Some(observe) = observer.as_mut() {
            observe(machine, switched);
        }
        if !switched && machine.hooks_mut().pending_faults() == 0 {
            // The fault fired (or expired): give the affected instruction
            // time to commit or squash, then fast-forward in the cheap model.
            if let Some(exit) = machine.run_for(config.switch_grace) {
                if exit != RunExit::CheckpointRequest {
                    return (exit, false);
                }
            }
            machine.switch_cpu(config.finish_cpu);
            switched = true;
        }
        // Horizon-aware scheduling: after the switch, once the engine is
        // fully dormant nothing can fire and the chunk exists only to bound
        // abort latency, so poll far more coarsely.
        let target = if switched {
            let chunk = if machine.hooks().is_dormant(0, machine.tick()) {
                config.chunk.saturating_mul(DORMANT_CHUNK_FACTOR)
            } else {
                config.chunk
            };
            machine.tick().saturating_add(chunk)
        } else {
            next_boundary(machine.tick(), origin, config.chunk)
        };
        match machine.run_for(target.saturating_sub(machine.tick()).max(1)) {
            Some(RunExit::CheckpointRequest) => continue,
            Some(exit) => return (exit, false),
            None => {}
        }
    }
}

/// Classifies a driven machine into an [`ExperimentResult`]. `driven` is
/// [`drive`]'s terminal exit and abort flag; an aborted run classifies as
/// [`Outcome::Infrastructure`] (the harness gave up — the guest's own
/// behavior is unknown). `stored_records` replaces the engine's injection
/// records: a run resumed from a mid-run snapshot ([`crate::snapshot`])
/// finishes on a machine whose engine never saw the injection, so the
/// records that classify it come from the snapshot.
pub(crate) fn finish(
    machine: &Machine<GemFiEngine>,
    origin: u64,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    (exit, aborted): (RunExit, bool),
    stored_records: Option<Vec<InjectionRecord>>,
) -> ExperimentResult {
    let injections = stored_records.unwrap_or_else(|| machine.hooks().records().to_vec());
    let output = machine
        .mem()
        .read_slice(prepared.guest.output_addr(), prepared.guest.output_len)
        .unwrap_or_default();
    let outcome = if aborted {
        Outcome::Infrastructure
    } else {
        classify(workload, &prepared.golden.bytes, exit, &output, &injections)
    };
    let injection_fraction = injections.first().map(|r| {
        let rel = r.tick.saturating_sub(origin) as f64;
        (rel / prepared.kernel_ticks.max(1) as f64).min(1.0)
    });
    ExperimentResult {
        spec,
        outcome,
        exit,
        injections,
        output,
        ticks: machine.tick(),
        injection_fraction,
    }
}

/// Restores from `checkpoint` with a fresh single-fault engine and drives
/// the whole experiment — everything [`run_experiment_with`] does short of
/// classification. The fork-at-injection conformance suite compares this
/// machine's terminal state bit-for-bit against a forked suffix's, so the
/// full machine comes back, not just the result.
pub fn drive_whole_run(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    spec: FaultSpec,
    config: &RunnerConfig,
    abort: &AbortToken,
) -> (Machine<GemFiEngine>, RunExit, bool) {
    let budget = watchdog_budget(checkpoint, prepared, config);
    let mut machine = restore(checkpoint, &[spec], Some(config.inject_cpu), budget, config, abort);
    let (exit, aborted) = drive(&mut machine, config, abort, checkpoint.tick(), None);
    (machine, exit, aborted)
}

/// Runs one experiment from `checkpoint` with every fault in `faults`
/// injected together: one fault for an ordinary experiment, several for
/// multi-bit upsets or the Vdd-scaling model's per-run fault population.
/// The NoW path passes a workstation-local checkpoint copy, the socket
/// worker its fetched image; everything else passes `prepared.checkpoint`.
/// The result's `spec` is the first fault.
///
/// `abort` is checked between scheduling chunks. The campaign's lease
/// reaper (or a socket worker's heartbeat loop) raises it when the lease is
/// lost; the run then stops at the next chunk boundary and classifies as
/// [`Outcome::Infrastructure`].
///
/// # Panics
///
/// Panics when `faults` is empty.
pub fn run_experiment_with(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    faults: &[FaultSpec],
    config: &RunnerConfig,
    abort: &AbortToken,
) -> ExperimentResult {
    assert!(!faults.is_empty(), "at least one fault");
    let budget = watchdog_budget(checkpoint, prepared, config);
    let mut machine = restore(checkpoint, faults, Some(config.inject_cpu), budget, config, abort);
    let driven = drive(&mut machine, config, abort, checkpoint.tick(), None);
    finish(&machine, checkpoint.tick(), prepared, workload, faults[0], driven, None)
}

/// Runs one experiment using the prepared workload's own checkpoint.
pub fn run_experiment(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    config: &RunnerConfig,
) -> ExperimentResult {
    run_experiment_with(
        &prepared.checkpoint,
        prepared,
        workload,
        &[spec],
        config,
        &AbortToken::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemfi::{FaultBehavior, FaultLocation, FaultTiming};
    use gemfi_workloads::pi::MonteCarloPi;

    fn small_pi() -> MonteCarloPi {
        MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() }
    }

    #[test]
    fn prepare_measures_the_fault_space() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        assert_eq!(p.golden.bytes, w.reference(), "golden must match the host model");
        assert!(p.stage_events[0] > 0, "fetch events counted");
        assert!(p.stage_events[4] > 0, "committed instructions counted");
        assert!(p.boot_ticks > 0 && p.kernel_ticks > 0);
        // The kernel is ~120 iterations × ~20 instructions.
        assert!(p.stage_events[4] > 1_000 && p.stage_events[4] < 100_000);
    }

    #[test]
    fn harmless_fault_is_not_sdc() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // Flip a bit of FP register f20 (unused by pi): never consumed.
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(10),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        assert_eq!(r.outcome, Outcome::NonPropagated, "{:?}", r.exit);
        assert_eq!(r.injections.len(), 1);
    }

    #[test]
    fn wild_base_register_fault_crashes() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // Set the stack pointer to garbage right inside the kernel: the
        // next stack access (or PAL context save) dies.
        let spec = FaultSpec {
            location: FaultLocation::Pc { core: 0 },
            thread: 0,
            timing: FaultTiming::Instructions(50),
            behavior: FaultBehavior::Set(0x00ff_ff00),
            occurrences: 1,
        };
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        assert_eq!(r.outcome, Outcome::Crashed, "{:?}", r.exit);
    }

    #[test]
    fn low_bit_flip_in_counted_register_gives_close_pi() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // Flip the low bit of the inside-count register (r2) late in the
        // kernel: pi changes by ±4/120 — not strictly correct, and outside
        // the 2-decimal gate → SDC; or masked if r2's low bit flips back.
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 2 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] - 100),
            behavior: FaultBehavior::Flip(0),
            occurrences: 1,
        };
        // Under O3 the in-flight consumer may have captured its operand
        // before the boundary injection, erasing the fault (a legitimate
        // non-propagated outcome); under atomic injection the next reader
        // always consumes it.
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        assert!(
            matches!(
                r.outcome,
                Outcome::Sdc | Outcome::StrictlyCorrect | Outcome::Correct | Outcome::NonPropagated
            ),
            "unexpected outcome {:?} ({:?})",
            r.outcome,
            r.exit
        );
        let atomic = run_experiment(
            &p,
            &w,
            spec,
            &RunnerConfig {
                inject_cpu: CpuKind::Atomic,
                finish_cpu: CpuKind::Atomic,
                ..RunnerConfig::default()
            },
        );
        assert!(
            atomic.injections.iter().any(|i| i.consumed),
            "atomic-mode injection into a live register must be consumed"
        );
    }

    #[test]
    fn injection_fraction_tracks_fault_time() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] / 2),
            behavior: FaultBehavior::Flip(1),
            occurrences: 1,
        };
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        let f = r.injection_fraction.expect("fault fired");
        assert!((0.2..0.9).contains(&f), "fraction {f}");
    }

    #[test]
    fn raised_abort_token_surfaces_as_infrastructure() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(10),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let second = FaultSpec { location: FaultLocation::FpReg { core: 0, reg: 21 }, ..spec };
        let abort = AbortToken::new();
        abort.abort();
        // Single-fault and multi-fault runs share the abort path.
        for faults in [vec![spec], vec![spec, second]] {
            let r = run_experiment_with(
                &p.checkpoint,
                &p,
                &w,
                &faults,
                &RunnerConfig::default(),
                &abort,
            );
            assert_eq!(r.outcome, Outcome::Infrastructure, "{} faults: {:?}", faults.len(), r.exit);
            assert_eq!(r.exit, RunExit::Watchdog);
            assert_eq!(r.spec, spec);
        }
    }

    #[test]
    fn atomic_only_runner_agrees_with_o3_runner_on_outcome() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 1 },
            thread: 0,
            timing: FaultTiming::Instructions(200),
            behavior: FaultBehavior::Flip(3),
            occurrences: 1,
        };
        let o3 = run_experiment(&p, &w, spec, &RunnerConfig::default());
        let atomic = run_experiment(
            &p,
            &w,
            spec,
            &RunnerConfig {
                inject_cpu: CpuKind::Atomic,
                finish_cpu: CpuKind::Atomic,
                ..RunnerConfig::default()
            },
        );
        // Both models classify the experiment to *some* outcome and record
        // the injection; the exact class may differ because O3's in-flight
        // instructions capture operands before a boundary injection lands.
        assert_eq!(o3.injections.len(), 1);
        assert_eq!(atomic.injections.len(), 1);
        assert_ne!(atomic.outcome, Outcome::Crashed, "{:?}", atomic.exit);
    }
}
