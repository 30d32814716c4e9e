//! The traced replica of one experiment, built from public `Machine` calls.
//!
//! `gemfi_campaign::drive_whole_run` and `drive_suffix` drive a machine
//! through one loop: O3 until the fault fires, O3 on to the next 20k-tick
//! grid boundary plus the switch grace, then Atomic to the end. That loop
//! is not instrumented, so the traced run repeats it here step for step,
//! with one difference: before the fault fires it advances in
//! [`PROBE_TICKS`] sub-steps so it can see when that happens. "Fires"
//! means what the runner's switch trigger means: the fault leaves the
//! engine's pending queue (`pending_faults() == 0`).
//! `Machine::run_for` stops at the first step start at or past its
//! deadline, so sub-stepping reaches the same grid boundary as one call.
//! The caller compares every replayed experiment with the program's own
//! `run_experiment` (outcome, exit, ticks, injection records); a mismatch
//! means the program's drive protocol changed and the phase split is
//! invalid.

use crate::trace::Tracer;
use gemfi::{AbortToken, FaultConfig, FaultSpec, GemFiEngine, InjectionRecord, Outcome};
use gemfi_campaign::{
    classify, ExperimentResult, ForkedSuffix, PreparedWorkload, RunnerConfig, DORMANT_CHUNK_FACTOR,
};
use gemfi_sim::{Machine, RunExit};
use gemfi_workloads::Workload;

/// Tick granularity at which the replica probes for the fault firing
/// before the CPU switch. It sets the resolution of the pre/post-fault
/// split, not the machine's behaviour.
pub const PROBE_TICKS: u64 = 250;

/// The drive phases, in the order an experiment passes through them.
pub const PHASES: [&str; 3] = ["exec.o3_prefault", "exec.o3_postfault", "exec.atomic"];
const PREFAULT: usize = 0;
const POSTFAULT: usize = 1;
const ATOMIC: usize = 2;

/// Simulated work done in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseWork {
    /// Simulated ticks.
    pub ticks: u64,
    /// Committed instructions.
    pub instret: u64,
}

/// What one replayed experiment produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub outcome: Outcome,
    pub exit: RunExit,
    pub ticks: u64,
    pub injections: Vec<InjectionRecord>,
    /// Work per phase, indexed like [`PHASES`].
    pub phases: [PhaseWork; 3],
    /// Whether the run reached the Atomic switch.
    pub switched: bool,
}

impl Replayed {
    /// Why this replay differs from the program's own result, if it does.
    pub fn mismatch(&self, reference: &ExperimentResult) -> Option<String> {
        if self.outcome != reference.outcome {
            return Some(format!("outcome {:?} != {:?}", self.outcome, reference.outcome));
        }
        if self.exit != reference.exit {
            return Some(format!("exit `{}` != `{}`", self.exit, reference.exit));
        }
        if self.ticks != reference.ticks {
            return Some(format!("ticks {} != {}", self.ticks, reference.ticks));
        }
        if self.injections != reference.injections {
            return Some("injection records differ".to_string());
        }
        None
    }
}

/// The open phase span and the machine counters at its start.
struct PhaseClock {
    phase: usize,
    span: usize,
    tick: u64,
    instret: u64,
    work: [PhaseWork; 3],
}

impl PhaseClock {
    fn start(
        phase: usize,
        machine: &Machine<GemFiEngine>,
        tracer: &mut Tracer,
        parent: usize,
        exp: u64,
    ) -> PhaseClock {
        PhaseClock {
            phase,
            span: tracer.open(PHASES[phase], Some(parent), exp),
            tick: machine.tick(),
            instret: machine.instret(),
            work: [PhaseWork::default(); 3],
        }
    }

    fn stop(&mut self, machine: &Machine<GemFiEngine>, tracer: &mut Tracer) {
        tracer.close(self.span);
        let w = &mut self.work[self.phase];
        w.ticks += machine.tick() - self.tick;
        w.instret += machine.instret() - self.instret;
    }

    fn enter(
        &mut self,
        phase: usize,
        machine: &Machine<GemFiEngine>,
        tracer: &mut Tracer,
        parent: usize,
        exp: u64,
    ) {
        self.stop(machine, tracer);
        self.phase = phase;
        self.span = tracer.open(PHASES[phase], Some(parent), exp);
        self.tick = machine.tick();
        self.instret = machine.instret();
    }
}

/// The first boundary strictly after `tick` on the grid anchored at the
/// checkpoint tick `origin` (the runner's pre-switch schedule).
fn next_boundary(tick: u64, origin: u64, granularity: u64) -> u64 {
    let rel = tick.saturating_sub(origin);
    origin.saturating_add((rel / granularity + 1).saturating_mul(granularity))
}

/// The runner's watchdog budget for one experiment.
fn watchdog_budget(prepared: &PreparedWorkload, config: &RunnerConfig) -> u64 {
    prepared
        .checkpoint
        .tick()
        .saturating_add(prepared.kernel_ticks.saturating_mul(config.watchdog_factor))
        .saturating_add(1_000_000)
}

/// Drives `machine` to completion the way the runner does, with one span
/// per phase under `parent`.
fn drive(
    machine: &mut Machine<GemFiEngine>,
    config: &RunnerConfig,
    origin: u64,
    tracer: &mut Tracer,
    parent: usize,
    exp: u64,
) -> (RunExit, [PhaseWork; 3], bool) {
    let mut switched = config.inject_cpu == config.finish_cpu;
    let mut fired = machine.hooks().pending_faults() == 0;
    let first = if switched {
        ATOMIC
    } else if fired {
        POSTFAULT
    } else {
        PREFAULT
    };
    let mut clock = PhaseClock::start(first, machine, tracer, parent, exp);
    let exit = 'run: loop {
        if !switched && machine.hooks().pending_faults() == 0 {
            if let Some(exit) = machine.run_for(config.switch_grace) {
                if exit != RunExit::CheckpointRequest {
                    break exit;
                }
            }
            machine.switch_cpu(config.finish_cpu);
            switched = true;
            clock.enter(ATOMIC, machine, tracer, parent, exp);
        }
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
        let stop = if fired {
            machine.run_for(target.saturating_sub(machine.tick()).max(1))
        } else {
            let mut stop = None;
            while stop.is_none() && machine.tick() < target {
                stop = machine.run_for((target - machine.tick()).min(PROBE_TICKS));
                if machine.hooks().pending_faults() == 0 {
                    fired = true;
                    clock.enter(POSTFAULT, machine, tracer, parent, exp);
                    if stop.is_none() && machine.tick() < target {
                        stop = machine.run_for(target - machine.tick());
                    }
                }
            }
            stop
        };
        match stop {
            Some(RunExit::CheckpointRequest) | None => continue 'run,
            Some(exit) => break exit,
        }
    };
    clock.stop(machine, tracer);
    (exit, clock.work, switched)
}

/// Reads the output region and classifies the finished machine, under an
/// `exec.classify` span.
fn classify_traced(
    machine: &Machine<GemFiEngine>,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    exit: RunExit,
    tracer: &mut Tracer,
    parent: usize,
    exp: u64,
) -> Outcome {
    let span = tracer.open("exec.classify", Some(parent), exp);
    let output = machine
        .mem()
        .read_slice(prepared.guest.output_addr(), prepared.guest.output_len)
        .unwrap_or_default();
    let outcome =
        classify(workload, &prepared.golden.bytes, exit, &output, machine.hooks().records());
    tracer.close(span);
    outcome
}

/// Replays one whole-run experiment (restore from the checkpoint, drive,
/// classify) under an `exp` span with `exec.drive`, `exec.restore`, phase
/// and `exec.classify` children.
pub fn replay_whole_run(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    config: &RunnerConfig,
    tracer: &mut Tracer,
    exp: u64,
) -> Replayed {
    let root = tracer.open("exp", None, exp);
    let drive_span = tracer.open("exec.drive", Some(root), exp);
    let restore = tracer.open("exec.restore", Some(drive_span), exp);
    let mut engine = GemFiEngine::new(FaultConfig::from_specs(vec![spec]));
    engine.set_abort_token(AbortToken::new());
    let mut machine = Machine::restore_with(
        &prepared.checkpoint,
        Some(config.inject_cpu),
        Some(watchdog_budget(prepared, config)),
        engine,
    );
    machine.set_elide(config.elide);
    machine.set_superblock(config.superblock);
    tracer.close(restore);
    let (exit, phases, switched) =
        drive(&mut machine, config, prepared.checkpoint.tick(), tracer, drive_span, exp);
    tracer.close(drive_span);
    let outcome = classify_traced(&machine, prepared, workload, exit, tracer, root, exp);
    tracer.close(root);
    Replayed {
        outcome,
        exit,
        ticks: machine.tick(),
        injections: machine.hooks().records().to_vec(),
        phases,
        switched,
    }
}

/// Replays one planned fork suffix (forked or whole-run fallback) the way
/// `drive_suffix` drives it, then classifies it; same span layout as
/// [`replay_whole_run`] minus the restore, which the planner did.
pub fn replay_suffix(
    mut suffix: ForkedSuffix,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    config: &RunnerConfig,
    tracer: &mut Tracer,
) -> Replayed {
    let exp = suffix.index as u64;
    let root = tracer.open("exp", None, exp);
    let drive_span = tracer.open("exec.drive", Some(root), exp);
    suffix.machine.hooks_mut().set_abort_token(AbortToken::new());
    let (exit, phases, switched) =
        drive(&mut suffix.machine, config, prepared.checkpoint.tick(), tracer, drive_span, exp);
    tracer.close(drive_span);
    let outcome = classify_traced(&suffix.machine, prepared, workload, exit, tracer, root, exp);
    tracer.close(root);
    Replayed {
        outcome,
        exit,
        ticks: suffix.machine.tick(),
        injections: suffix.machine.hooks().records().to_vec(),
        phases,
        switched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaigns::{fork_config, sample_specs};
    use gemfi_campaign::{plan_suffixes, prepare_workload, run_experiment};
    use gemfi_workloads::pi::MonteCarloPi;
    use std::time::Instant;

    /// The replica reproduces `run_experiment` exactly on tiny mixed
    /// campaigns, whole runs and fork suffixes alike, and its phase spans
    /// tile each drive span. dct switches to Atomic; tiny pi ends in O3.
    #[test]
    fn replay_matches_the_program_on_a_tiny_campaign() {
        let tiny_pi = MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() };
        let dct = crate::campaigns::guest("dct");
        for (w, n, switches) in [(&tiny_pi as &dyn Workload, 24, false), (dct.as_ref(), 8, true)] {
            let p = prepare_workload(w).unwrap();
            let runner = RunnerConfig::default();
            let specs = sample_specs(&p, 7, n);
            let reference: Vec<_> =
                specs.iter().map(|s| run_experiment(&p, w, *s, &runner)).collect();
            let mut tracer = Tracer::new(Instant::now());
            let mut switched = 0;
            for (i, (spec, r)) in specs.iter().zip(&reference).enumerate() {
                let replayed = replay_whole_run(&p, w, *spec, &runner, &mut tracer, i as u64);
                assert_eq!(replayed.mismatch(r), None, "{} experiment {i}", w.name());
                let ticks: u64 = replayed.phases.iter().map(|ph| ph.ticks).sum();
                assert_eq!(ticks, r.ticks - p.checkpoint.tick(), "phases cover the run");
                switched += usize::from(replayed.switched);
            }
            assert_eq!(switched > 0, switches, "{}", w.name());
            for suffix in plan_suffixes(&p, &specs, &runner, &fork_config()) {
                let i = suffix.index;
                let replayed = replay_suffix(suffix, &p, w, &runner, &mut tracer);
                assert_eq!(replayed.mismatch(&reference[i]), None, "{} suffix {i}", w.name());
            }
            let spans = tracer.into_spans();
            for (span, gap) in spans.iter().zip(crate::trace::self_times(&spans)) {
                if span.name == "exec.drive" {
                    assert!(gap < 0.005, "uncovered drive time {gap}");
                }
            }
        }
    }

    #[test]
    fn mismatch_names_the_first_difference() {
        let w = MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() };
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig::default();
        let spec = sample_specs(&p, 3, 1)[0];
        let reference = run_experiment(&p, &w, spec, &runner);
        let mut replayed =
            replay_whole_run(&p, &w, spec, &runner, &mut Tracer::new(Instant::now()), 0);
        replayed.ticks += 1;
        let why = replayed.mismatch(&reference).expect("ticks differ");
        assert!(why.starts_with("ticks"), "{why}");
    }
}
