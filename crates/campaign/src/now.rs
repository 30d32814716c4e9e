//! Campaign execution on a (simulated) network of workstations — the
//! Sec. III-E protocol, hardened for real clusters:
//!
//! 1. fault-configuration files for all experiments go to a network share;
//! 2. one simulation runs to the activation point and the checkpoint is
//!    stored on the share;
//! 3. each workstation takes a local copy of the checkpoint;
//! 4. each workstation repeatedly claims a remaining experiment from the
//!    share by writing an **expiring lease** ([`crate::lease`]);
//! 5. results move back to the share, and every lifecycle transition is
//!    appended to a durable **journal** ([`crate::journal`]);
//! 6. until no experiments remain.
//!
//! "Workstations" are thread groups sharing one local checkpoint copy; the
//! share is a real spool directory, so the artifacts (fault files, the
//! checkpoint blob, lease files, result files, the journal) are the same
//! ones a physical cluster would exchange over NFS.
//!
//! The claim/execute/report cycle itself lives in the backend-neutral
//! pieces this module composes: the [`WindowScheduler`] owns the
//! lease/journal/backoff state machine, [`SpoolTransport`] exposes it
//! through the [`crate::transport::CampaignTransport`] verbs, and
//! [`drive_worker`] is the very worker loop a remote socket worker runs
//! against a [`crate::server::CampaignServer`] — so every recovery path
//! tested here holds for the network backend too.
//!
//! Fault tolerance, on top of the paper's protocol:
//!
//! - A worker that panics releases its lease and journals the failed
//!   attempt; the experiment returns to the pending pool with capped
//!   exponential backoff.
//! - A worker that hangs past its lease deadline is reaped: any other
//!   worker's claim loop breaks the expired lease, raises the runaway
//!   run's [`AbortToken`], and requeues the experiment.
//! - An experiment that exhausts its retries is terminally classified
//!   [`Outcome::Infrastructure`] — counted, never silently dropped.
//! - With [`NowConfig::snapshot_ticks`] set, workers drop periodic mid-run
//!   snapshots ([`crate::snapshot`]) onto the share; a retried attempt
//!   resumes from the last snapshot instead of re-running from the
//!   campaign checkpoint.
//! - A killed campaign resumes: [`run_campaign_now`] with
//!   [`NowConfig::resume`] replays the journal, verifies it belongs to this
//!   campaign (experiment count, fault-spec digest, checkpoint digest),
//!   reaps orphaned leases, and schedules only the unfinished remainder.
//!   The merged [`OutcomeTable`] is identical to an uninterrupted run.
//!
//! [`AbortToken`]: gemfi::AbortToken

use crate::adaptive::{
    replay_adaptive, AdaptiveConfig, AdaptiveOutcome, AdaptiveReplay, AdaptiveState, Draw,
    ReplayTerminal,
};
use crate::clock::{system_clock, Clock};
use crate::journal::{
    spec_digest, CampaignState, ExpState, Journal, JournalEvent, JOURNAL_VERSION,
};
use crate::lease::LeaseDir;
use crate::report::OutcomeTable;
use crate::runner::{ExperimentResult, PreparedWorkload, RunnerConfig};
use crate::snapshot::SnapshotPolicy;
use crate::transport::{SpoolTransport, WorkAssignment};
use crate::window::{fault_path, snapshot_path, SchedulerPolicy, SeedSlot, WindowScheduler};
use crate::worker::{drive_worker, QueueContext, WorkerOptions};
use gemfi::{FaultConfig, FaultSpec, Outcome};
use gemfi_sim::Checkpoint;
use gemfi_workloads::Workload;
use std::io::{Error, ErrorKind};
use std::path::Path;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic failure injection for testing the campaign harness itself.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// `(experiment, attempt)` pairs whose execution panics (a simulated
    /// workstation crash). Attempts are 1-based.
    pub panic_on: Vec<(usize, u64)>,
    /// Stop claiming after this many experiments finish *in this process*
    /// and return [`ErrorKind::Interrupted`] — a controlled stand-in for
    /// `kill -9` on the campaign driver. The journal survives; resume
    /// finishes the rest.
    pub halt_after: Option<usize>,
}

/// Cluster shape and fault-tolerance policy.
#[derive(Debug, Clone)]
pub struct NowConfig {
    /// Number of workstations (the paper uses 27).
    pub workstations: usize,
    /// Concurrent experiments per workstation (the paper uses 4).
    pub slots_per_workstation: usize,
    /// The shared spool directory ("network share").
    pub share_dir: PathBuf,
    /// Lease duration: a worker silent for longer than this is presumed
    /// dead and its experiment is reaped.
    pub lease: Duration,
    /// Retries after the first attempt before an experiment is terminally
    /// classified [`Outcome::Infrastructure`].
    pub max_retries: u64,
    /// Base retry backoff; doubles per failed attempt, capped at 64×.
    pub retry_backoff: Duration,
    /// Replay an existing journal and run only the unfinished remainder.
    /// Without a journal on the share this is an ordinary fresh start.
    pub resume: bool,
    /// Mid-run snapshot cadence in simulated ticks; `0` disables. Snapshot
    /// files land on the share next to the experiment's fault file and are
    /// deleted once the experiment reaches a terminal outcome.
    pub snapshot_ticks: u64,
    /// The clock leases and backoffs are judged by. Production uses
    /// [`system_clock`]; tests inject a [`crate::clock::TestClock`].
    pub clock: Arc<dyn Clock>,
    /// Failure injection for harness tests.
    pub chaos: ChaosConfig,
}

impl NowConfig {
    /// A config with the given cluster shape and default fault-tolerance
    /// policy (30 s leases, 2 retries, 50 ms base backoff, fresh start,
    /// system clock, no snapshots).
    pub fn new(
        workstations: usize,
        slots_per_workstation: usize,
        share_dir: impl Into<PathBuf>,
    ) -> NowConfig {
        NowConfig {
            workstations,
            slots_per_workstation,
            share_dir: share_dir.into(),
            lease: Duration::from_secs(30),
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            resume: false,
            snapshot_ticks: 0,
            clock: system_clock(),
            chaos: ChaosConfig::default(),
        }
    }

    fn max_attempts(&self) -> u64 {
        self.max_retries + 1
    }

    /// The window-scheduler policy this config implies.
    pub(crate) fn scheduler_policy(&self) -> SchedulerPolicy {
        SchedulerPolicy {
            lease_ms: self.lease.as_millis() as u64,
            max_attempts: self.max_attempts(),
            backoff_ms: self.retry_backoff.as_millis() as u64,
            idle_backoff_ms: 1,
            halt_after: self.chaos.halt_after,
        }
    }
}

/// The terminal record of one experiment, from this run or replayed from
/// the journal on resume.
#[derive(Debug, Clone)]
pub struct CompletedExperiment {
    /// Experiment index.
    pub exp: usize,
    /// The classified outcome ([`Outcome::Infrastructure`] when the harness
    /// exhausted its retries).
    pub outcome: Outcome,
    /// Attempts consumed.
    pub attempts: u64,
    /// Simulated ticks of the completing run (0 for infrastructure
    /// failures).
    pub ticks: u64,
    /// Whether this record was replayed from the journal rather than
    /// executed by this process.
    pub resumed: bool,
}

/// What the cluster did.
#[derive(Debug, Clone)]
pub struct NowReport {
    /// Wall-clock duration of the parallel phase.
    pub wall: Duration,
    /// Experiments completed per workstation in this process (load balance
    /// check).
    pub per_workstation: Vec<usize>,
    /// Total experiments.
    pub experiments: usize,
    /// Experiments whose terminal record was replayed from the journal.
    pub resumed: usize,
    /// Failed attempts that were retried (panics and reaped leases).
    pub retries: u64,
    /// Expired leases broken by the reaper (subset of `retries` plus any
    /// orphans reaped at resume).
    pub reclaimed_leases: u64,
    /// Experiments terminally classified [`Outcome::Infrastructure`].
    pub infrastructure_failures: u64,
}

/// Runs a whole campaign on the simulated NoW. Returns the merged outcome
/// table, per-experiment terminal records (in experiment order), and the
/// report.
///
/// # Errors
///
/// I/O errors from the share; [`ErrorKind::InvalidData`] when resume finds
/// a journal from a different campaign (count, specs, or checkpoint
/// mismatch); [`ErrorKind::Interrupted`] when
/// [`ChaosConfig::halt_after`] stops the campaign early (the journal
/// remains resumable).
pub fn run_campaign_now(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    config: &NowConfig,
) -> std::io::Result<(OutcomeTable, Vec<CompletedExperiment>, NowReport)> {
    let seeded = seed_fixed_campaign(&config.share_dir, prepared, specs, config.resume)?;
    let resumed_count = seeded.resumed;

    // Step 3: one local checkpoint copy per workstation.
    let locals =
        load_local_checkpoints(&config.share_dir.join("campaign.ckpt"), config.workstations)?;
    let window = execute_window(
        prepared,
        workload,
        (0..specs.len()).collect(),
        specs.to_vec(),
        seeded.seed,
        &locals,
        runner,
        config,
        seeded.journal,
        seeded.reclaimed,
        0,
    )?;
    if window.halted {
        return Err(Error::new(
            ErrorKind::Interrupted,
            format!(
                "campaign halted by chaos after {} experiments ({} of {} terminal); resume to finish",
                window.finished_here,
                window.terminal,
                specs.len()
            ),
        ));
    }

    let results: Vec<CompletedExperiment> = window
        .completed
        .into_iter()
        .map(|r| r.expect("all experiments reached a terminal state"))
        .collect();
    let table: OutcomeTable = results.iter().map(|r| r.outcome).collect();
    let report = NowReport {
        wall: window.wall,
        per_workstation: window.per_ws,
        experiments: specs.len(),
        resumed: resumed_count,
        retries: window.retries,
        reclaimed_leases: window.reclaimed,
        infrastructure_failures: table.count(Outcome::Infrastructure),
    };
    Ok((table, results, report))
}

/// The seeded starting state of a fixed-n campaign: the opened journal
/// plus one [`SeedSlot`] per experiment.
pub(crate) struct CampaignSeed {
    /// The campaign journal, header written (fresh) or replayed (resume).
    pub(crate) journal: Journal,
    /// Starting slot state per experiment.
    pub(crate) seed: Vec<SeedSlot>,
    /// Experiments whose terminal record was replayed.
    pub(crate) resumed: usize,
    /// Orphaned leases broken while seeding.
    pub(crate) reclaimed: u64,
}

/// Seeds a fixed-n campaign on `share`: spools the fault files (step 1)
/// and the checkpoint (step 2), opens the journal, and — on resume —
/// replays it, verifies the campaign identity, reaps orphaned leases, and
/// marks already-terminal experiments. Shared by the in-process NoW
/// executor and the campaign server's fixed-n queues.
pub(crate) fn seed_fixed_campaign(
    share: &Path,
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    resume: bool,
) -> std::io::Result<CampaignSeed> {
    std::fs::create_dir_all(share)?;
    let leases = LeaseDir::new(share);
    let ckpt_path = share.join("campaign.ckpt");
    let resuming = resume && Journal::path_in(share).exists();

    // Step 1: experiment configurations onto the share (idempotent).
    for (i, spec) in specs.iter().enumerate() {
        FaultConfig::from_specs(vec![*spec]).save(&fault_path(share, i))?;
    }

    let mut resumed_count = 0;
    let mut reclaimed_at_start = 0;
    let mut orphans: Vec<(usize, u64, String)> = Vec::new();
    let mut seed: Vec<SeedSlot> = Vec::with_capacity(specs.len());

    if resuming {
        // The checkpoint must be the very one the journal was recorded
        // against; compare digests before trusting any replayed outcome.
        let header = Checkpoint::load_header(&ckpt_path)?;
        let state = replay_state(share, specs, header.digest)?;
        for (exp, exp_state) in state.experiments.iter().enumerate() {
            match exp_state {
                ExpState::Unfinished { attempts } => {
                    // Break any orphaned lease left by the dead campaign
                    // process, whatever its deadline says.
                    let mut attempts = *attempts;
                    if let Some(orphan) = leases.read(exp)? {
                        leases.release(exp)?;
                        reclaimed_at_start += 1;
                        attempts = attempts.max(orphan.attempt);
                        orphans.push((exp, orphan.attempt, orphan.worker));
                    }
                    seed.push(SeedSlot::Pending { attempts });
                }
                ExpState::Done { outcome, attempt, ticks } => {
                    seed.push(SeedSlot::Terminal {
                        record: CompletedExperiment {
                            exp,
                            outcome: *outcome,
                            attempts: *attempt,
                            ticks: *ticks,
                            resumed: true,
                        },
                    });
                    resumed_count += 1;
                }
                ExpState::Failed { attempts } => {
                    seed.push(SeedSlot::Terminal {
                        record: CompletedExperiment {
                            exp,
                            outcome: Outcome::Infrastructure,
                            attempts: *attempts,
                            ticks: 0,
                            resumed: true,
                        },
                    });
                    resumed_count += 1;
                }
            }
        }
    } else {
        // Fresh start: clear any stale run artifacts, then spool the
        // checkpoint (step 2) and open a new journal with the campaign
        // identity header.
        clear_run_artifacts(share)?;
        prepared.checkpoint.save(&ckpt_path)?;
        seed.extend((0..specs.len()).map(|_| SeedSlot::Pending { attempts: 0 }));
    }

    let mut journal = Journal::open(share)?;
    if resuming {
        // Journal the attempts burned by orphaned leases, so a *second*
        // resume still counts them toward the retry cap.
        for (exp, attempt, worker) in orphans {
            journal.append(&JournalEvent::AttemptFailed {
                exp: exp as u64,
                attempt,
                worker,
                reason: "orphaned lease (campaign restart)".to_string(),
                spec: Some(specs[exp].to_string()),
            })?;
        }
    } else {
        journal.append(&JournalEvent::Campaign {
            version: JOURNAL_VERSION,
            experiments: specs.len() as u64,
            checkpoint_digest: prepared.checkpoint.digest(),
            spec_digest: spec_digest(specs),
        })?;
    }
    Ok(CampaignSeed { journal, seed, resumed: resumed_count, reclaimed: reclaimed_at_start })
}

/// Seeds an adaptive campaign on `share`: spools the checkpoint, opens
/// the journal (header on fresh start), and — on resume — replays the
/// draw/terminal prefix. Shared by the in-process adaptive executor and
/// the campaign server's adaptive queues.
pub(crate) fn seed_adaptive_campaign(
    share: &Path,
    prepared: &PreparedWorkload,
    adaptive: &AdaptiveConfig,
    seed: u64,
    resume: bool,
) -> std::io::Result<(Journal, AdaptiveReplay)> {
    std::fs::create_dir_all(share)?;
    let ckpt_path = share.join("campaign.ckpt");
    let resuming = resume && Journal::path_in(share).exists();
    let replay = if resuming {
        let header = Checkpoint::load_header(&ckpt_path)?;
        replay_adaptive(share, adaptive, seed, header.digest)?
    } else {
        clear_run_artifacts(share)?;
        prepared.checkpoint.save(&ckpt_path)?;
        AdaptiveReplay::default()
    };
    let mut journal = Journal::open(share)?;
    if !resuming {
        journal.append(&adaptive.header(seed, prepared.checkpoint.digest()))?;
    }
    Ok((journal, replay))
}

/// What one execution window did.
struct WindowResult {
    journal: Journal,
    completed: Vec<Option<CompletedExperiment>>,
    per_ws: Vec<usize>,
    retries: u64,
    reclaimed: u64,
    terminal: usize,
    finished_here: usize,
    halted: bool,
    wall: Duration,
}

fn load_local_checkpoints(
    ckpt_path: &Path,
    workstations: usize,
) -> std::io::Result<Vec<Arc<Checkpoint>>> {
    (0..workstations).map(|_| Checkpoint::load(ckpt_path).map(Arc::new)).collect()
}

/// Runs one window of experiments over the workstation pool: the paper's
/// claim/lease/execute/journal protocol (steps 4–5), factored out so both
/// the fixed-n campaign (one window) and the adaptive engine (one window
/// per round) share it. `exps[i]` is the global index of local slot `i`;
/// fault files for every listed experiment must already be spooled.
///
/// Each worker thread is the generic [`drive_worker`] loop over a
/// [`SpoolTransport`] — the same loop remote socket workers run.
#[allow(clippy::too_many_arguments)]
fn execute_window(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    exps: Vec<usize>,
    specs: Vec<FaultSpec>,
    seed: Vec<SeedSlot>,
    locals: &[Arc<Checkpoint>],
    runner: &RunnerConfig,
    config: &NowConfig,
    journal: Journal,
    reclaimed_at_start: u64,
    finished_before: usize,
) -> std::io::Result<WindowResult> {
    debug_assert!(exps.len() == specs.len() && exps.len() == seed.len());
    let scheduler = Mutex::new(WindowScheduler::new(
        &config.share_dir,
        Arc::clone(&config.clock),
        config.scheduler_policy(),
        journal,
        exps,
        specs,
        seed,
        config.workstations,
        reclaimed_at_start,
        finished_before,
    ));

    let started = Instant::now();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for (ws, local) in locals.iter().enumerate() {
            for slot in 0..config.slots_per_workstation {
                let local = Arc::clone(local);
                let scheduler = &scheduler;
                handles.push(scope.spawn(move || {
                    let mut opts = WorkerOptions::new(format!("ws{ws}.slot{slot}"));
                    opts.runner = *runner;
                    opts.chaos_panic_on = config.chaos.panic_on.clone();
                    let mut transport =
                        SpoolTransport { scheduler, share: config.share_dir.clone(), ws };
                    let ctx = QueueContext { workload, prepared, checkpoint: &local };
                    let policy = SnapshotPolicy::every(config.snapshot_ticks);
                    let mut execute =
                        |assignment: &WorkAssignment| -> Result<ExperimentResult, String> {
                            let snap = policy
                                .enabled()
                                .then(|| snapshot_path(&config.share_dir, assignment.exp));
                            Ok(ctx.execute(
                                assignment,
                                runner,
                                snap.as_deref().map(|p| (p, policy)),
                            ))
                        };
                    drive_worker(&mut transport, &opts, &mut execute).map(|_| ())
                }));
            }
        }
        for h in handles {
            h.join().expect("worker thread panicked outside catch_unwind")?;
        }
        Ok(())
    })?;
    let wall = started.elapsed();

    let s = scheduler.into_inner().expect("no worker holds the schedule");
    let (journal, completed, per_ws, retries, reclaimed, terminal, finished_here, halted) =
        s.into_parts();
    Ok(WindowResult {
        journal,
        completed,
        per_ws,
        retries,
        reclaimed,
        terminal,
        finished_here,
        halted,
        wall,
    })
}

/// One adaptive round's executable remainder, after replayed terminals
/// were folded straight into the state.
pub(crate) struct RoundWindow {
    /// Global experiment indices to execute.
    pub(crate) exps: Vec<usize>,
    /// Cell index per window slot (for folding completions back).
    pub(crate) cells: Vec<usize>,
    /// Fault spec per window slot.
    pub(crate) specs: Vec<FaultSpec>,
    /// Scheduler seed per window slot.
    pub(crate) seed: Vec<SeedSlot>,
    /// Draws whose terminal outcome was replayed from the journal.
    pub(crate) resumed: usize,
    /// Orphaned leases broken while planning.
    pub(crate) reclaimed: u64,
}

/// Plans one adaptive round: validates/journals the round's draws against
/// the replayed prefix, folds already-terminal draws into `state` and
/// `table`, spools fault files and reaps per-experiment orphans for the
/// remainder. Shared by the in-process adaptive campaign and the campaign
/// server's adaptive queues.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_round(
    draws: &[Draw],
    adaptive: &AdaptiveConfig,
    replay: &AdaptiveReplay,
    state: &mut AdaptiveState,
    table: &mut OutcomeTable,
    journal: &mut Journal,
    share: &Path,
    leases: &LeaseDir,
) -> std::io::Result<RoundWindow> {
    let mut round = RoundWindow {
        exps: Vec::new(),
        cells: Vec::new(),
        specs: Vec::new(),
        seed: Vec::new(),
        resumed: 0,
        reclaimed: 0,
    };
    // Commit the whole round's draw decisions to the journal before
    // executing any of them; a journaled prefix must match the re-derived
    // trajectory exactly.
    for d in draws {
        let label = adaptive.cells[d.cell].to_string();
        if let Some((cell, ordinal)) = replay.drawn.get(d.exp as usize) {
            if *cell != label || *ordinal != d.draw {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "journaled draw {} ({cell} #{ordinal}) does not match the \
                         re-derived trajectory ({label} #{})",
                        d.exp, d.draw
                    ),
                ));
            }
        } else {
            journal.append(&JournalEvent::Drawn { exp: d.exp, cell: label, draw: d.draw })?;
        }
        match replay.terminal.get(&d.exp) {
            Some(ReplayTerminal::Done { outcome, .. }) => {
                state.record(d.cell, *outcome);
                table.add(*outcome);
                round.resumed += 1;
            }
            Some(ReplayTerminal::Failed { .. }) => {
                // Infrastructure failures spent budget but are not
                // evidence — mirror of the live path.
                table.add(Outcome::Infrastructure);
                round.resumed += 1;
            }
            None => {
                let global = d.exp as usize;
                FaultConfig::from_specs(vec![d.spec]).save(&fault_path(share, global))?;
                let mut attempts = replay.attempts.get(&d.exp).copied().unwrap_or(0);
                if let Some(orphan) = leases.read(global)? {
                    // A worker of the dead campaign process died holding
                    // this draw.
                    leases.release(global)?;
                    round.reclaimed += 1;
                    attempts = attempts.max(orphan.attempt);
                    journal.append(&JournalEvent::AttemptFailed {
                        exp: d.exp,
                        attempt: orphan.attempt,
                        worker: orphan.worker,
                        reason: "orphaned lease (campaign restart)".to_string(),
                        spec: Some(d.spec.to_string()),
                    })?;
                }
                round.exps.push(global);
                round.cells.push(d.cell);
                round.specs.push(d.spec);
                round.seed.push(SeedSlot::Pending { attempts });
            }
        }
    }
    Ok(round)
}

/// Folds one executed round's terminal records back into the adaptive
/// state and the pooled table. `cells[i]` is the cell of window slot `i`.
pub(crate) fn fold_round(
    state: &mut AdaptiveState,
    table: &mut OutcomeTable,
    cells: &[usize],
    completed: Vec<Option<CompletedExperiment>>,
) {
    for (local, done) in completed.into_iter().enumerate() {
        let done = done.expect("all window experiments reached a terminal state");
        state.record(cells[local], done.outcome);
        table.add(done.outcome);
    }
}

/// Runs an adaptive (sequential early-stopping) campaign on the NoW: each
/// round the engine draws the next batch per undecided cell, journals
/// every draw, executes the not-yet-terminal remainder as one
/// lease/journal window across the workstations, and folds the outcomes
/// back into the live per-cell stats before re-evaluating the stopping
/// rule.
///
/// Resume ([`NowConfig::resume`]): the engine re-derives the identical
/// draw trajectory from the seed, validates it against the journaled
/// `drawn` records, folds terminal outcomes already recorded, reaps
/// orphaned leases, and executes only what is missing — reaching
/// byte-identical per-cell decisions to an uninterrupted run.
///
/// # Errors
///
/// I/O errors from the share; [`ErrorKind::InvalidData`] when resume finds
/// a journal from a different campaign (seed, checkpoint, stopping rule,
/// or cell set mismatch); [`ErrorKind::Interrupted`] when
/// [`ChaosConfig::halt_after`] stops the campaign early (the journal
/// remains resumable).
pub fn run_campaign_adaptive_now(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    runner: &RunnerConfig,
    config: &NowConfig,
    adaptive: &AdaptiveConfig,
    seed: u64,
) -> std::io::Result<(AdaptiveOutcome, NowReport)> {
    let leases = LeaseDir::new(&config.share_dir);
    let (mut journal, replay) =
        seed_adaptive_campaign(&config.share_dir, prepared, adaptive, seed, config.resume)?;
    let locals =
        load_local_checkpoints(&config.share_dir.join("campaign.ckpt"), config.workstations)?;

    let mut state = AdaptiveState::new(adaptive, seed, prepared.stage_events);
    let mut table = OutcomeTable::new();
    let mut per_ws = vec![0usize; config.workstations];
    let mut wall = Duration::ZERO;
    let (mut retries, mut reclaimed) = (0u64, 0u64);
    let (mut resumed, mut finished_in_process) = (0usize, 0usize);

    loop {
        let draws = state.next_round();
        if draws.is_empty() {
            break;
        }
        let round = plan_round(
            &draws,
            adaptive,
            &replay,
            &mut state,
            &mut table,
            &mut journal,
            &config.share_dir,
            &leases,
        )?;
        resumed += round.resumed;
        reclaimed += round.reclaimed;

        if !round.exps.is_empty() {
            let window = execute_window(
                prepared,
                workload,
                round.exps,
                round.specs,
                round.seed,
                &locals,
                runner,
                config,
                journal,
                0,
                finished_in_process,
            )?;
            journal = window.journal;
            wall += window.wall;
            retries += window.retries;
            reclaimed += window.reclaimed;
            finished_in_process += window.finished_here;
            for (ws, n) in window.per_ws.iter().enumerate() {
                per_ws[ws] += n;
            }
            if window.halted {
                return Err(Error::new(
                    ErrorKind::Interrupted,
                    format!(
                        "adaptive campaign halted by chaos after {finished_in_process} \
                         experiments ({} drawn); resume to finish",
                        state.drawn_total()
                    ),
                ));
            }
            fold_round(&mut state, &mut table, &round.cells, window.completed);
        }
        state.end_round();
    }

    state.finalize();
    let outcome = AdaptiveOutcome {
        cells: state.reports(adaptive.z),
        table,
        experiments: state.drawn_total(),
        rounds: state.rounds(),
        resumed: resumed as u64,
        z: adaptive.z,
    };
    let report = NowReport {
        wall,
        per_workstation: per_ws,
        experiments: outcome.experiments as usize,
        resumed,
        retries,
        reclaimed_leases: reclaimed,
        infrastructure_failures: outcome.table.count(Outcome::Infrastructure),
    };
    Ok((outcome, report))
}

/// Replays and validates the journal against this campaign's identity.
pub(crate) fn replay_state(
    share: &Path,
    specs: &[FaultSpec],
    checkpoint_digest: u64,
) -> std::io::Result<CampaignState> {
    let events = Journal::replay(&Journal::path_in(share))?;
    // Identity checks come before state folding so a journal from a
    // different campaign reports the mismatch, not a confusing
    // out-of-range experiment.
    let Some(JournalEvent::Campaign {
        version,
        experiments,
        checkpoint_digest: journal_ckpt,
        spec_digest: journal_specs,
    }) = events.iter().find(|e| matches!(e, JournalEvent::Campaign { .. })).cloned()
    else {
        return Err(Error::new(ErrorKind::InvalidData, "journal has no campaign header"));
    };
    if version != JOURNAL_VERSION {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("journal version {version}, expected {JOURNAL_VERSION}"),
        ));
    }
    if experiments != specs.len() as u64 {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("journal covers {experiments} experiments, campaign has {}", specs.len()),
        ));
    }
    if journal_specs != spec_digest(specs) {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "journal was recorded for a different fault-spec set",
        ));
    }
    if journal_ckpt != checkpoint_digest {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "spooled checkpoint does not match the journaled campaign (stale or swapped)",
        ));
    }
    CampaignState::from_events(&events, specs.len())
        .map_err(|e| Error::new(ErrorKind::InvalidData, e))
}

/// Removes journal/lease/result/snapshot leftovers so a fresh (non-resume)
/// start cannot mix state from an earlier campaign in the same directory.
pub(crate) fn clear_run_artifacts(share: &Path) -> std::io::Result<()> {
    let journal = Journal::path_in(share);
    if journal.exists() {
        std::fs::remove_file(&journal)?;
    }
    for entry in std::fs::read_dir(share)? {
        let path = entry?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("lease") | Some("result") | Some("snap") => std::fs::remove_file(&path)?,
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::now_ms;
    use crate::runner::prepare_workload;
    use crate::sampler::FaultSampler;
    use gemfi_cpu::CpuKind;
    use gemfi_workloads::pi::MonteCarloPi;

    fn small_campaign(
        points: u64,
        seed: u64,
        experiments: usize,
    ) -> (MonteCarloPi, PreparedWorkload, Vec<FaultSpec>, RunnerConfig) {
        let w = MonteCarloPi { points, init_spins: 30, ..MonteCarloPi::default() };
        let p = prepare_workload(&w).unwrap();
        let mut sampler = FaultSampler::new(seed, p.stage_events, 0, 0);
        let specs: Vec<_> = (0..experiments).map(|_| sampler.sample_any()).collect();
        let runner = RunnerConfig {
            inject_cpu: CpuKind::Atomic,
            finish_cpu: CpuKind::Atomic,
            ..RunnerConfig::default()
        };
        (w, p, specs, runner)
    }

    fn share(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gemfi-now-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn fast_config(workstations: usize, slots: usize, dir: &Path) -> NowConfig {
        NowConfig {
            retry_backoff: Duration::from_millis(1),
            ..NowConfig::new(workstations, slots, dir)
        }
    }

    #[test]
    fn now_executes_every_experiment_and_spools_artifacts() {
        let (w, p, specs, runner) = small_campaign(60, 3, 12);
        let dir = share("basic");
        let cfg = fast_config(3, 2, &dir);
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 12);
        assert_eq!(results.len(), 12);
        assert_eq!(report.experiments, 12);
        assert_eq!(report.per_workstation.iter().sum::<usize>(), 12);
        assert_eq!(report.retries, 0);
        assert_eq!(report.infrastructure_failures, 0);
        // Spool artifacts exist, including the journal and no leaked leases.
        assert!(dir.join("campaign.ckpt").exists());
        assert!(dir.join("exp00000.fault").exists());
        assert!(dir.join("exp00011.result").exists());
        assert!(Journal::path_in(&dir).exists());
        assert!(!dir.join("exp00000.lease").exists(), "leases released");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn now_results_match_serial_execution() {
        let (w, p, specs, runner) = small_campaign(50, 11, 6);
        let serial: Vec<_> = specs
            .iter()
            .map(|s| crate::runner::run_experiment(&p, &w, *s, &runner).outcome)
            .collect();
        let dir = share("serial");
        let cfg = fast_config(2, 2, &dir);
        let (_, results, _) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        let parallel: Vec<_> = results.iter().map(|r| r.outcome).collect();
        assert_eq!(serial, parallel, "determinism across execution modes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_worker_attempt_is_retried() {
        let (w, p, specs, runner) = small_campaign(50, 5, 6);
        let dir = share("panic");
        let mut cfg = fast_config(2, 2, &dir);
        cfg.chaos.panic_on = vec![(2, 1)]; // first attempt of experiment 2 dies
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 6);
        assert_eq!(report.retries, 1);
        assert_eq!(report.infrastructure_failures, 0);
        assert_eq!(results[2].attempts, 2, "retry consumed a second attempt");
        assert!(results[2].outcome.is_experiment_outcome());
        // The journal recorded the failed attempt with full provenance:
        // the panic payload and the offending fault spec.
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        let failed = events
            .iter()
            .find_map(|e| match e {
                JournalEvent::AttemptFailed { exp: 2, attempt: 1, reason, spec, .. } => {
                    Some((reason.clone(), spec.clone()))
                }
                _ => None,
            })
            .expect("journal has the failed attempt");
        assert!(failed.0.contains("worker panic"), "payload recorded: {}", failed.0);
        assert_eq!(failed.1.as_deref(), Some(specs[2].to_string().as_str()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_retries_land_in_the_infrastructure_bucket() {
        let (w, p, specs, runner) = small_campaign(50, 7, 4);
        let dir = share("exhaust");
        let mut cfg = fast_config(1, 2, &dir);
        cfg.max_retries = 2;
        // Every attempt of experiment 1 panics.
        cfg.chaos.panic_on = (1..=3).map(|a| (1, a)).collect();
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 4, "no experiment goes missing");
        assert_eq!(table.count(Outcome::Infrastructure), 1);
        assert_eq!(report.infrastructure_failures, 1);
        assert_eq!(results[1].outcome, Outcome::Infrastructure);
        assert_eq!(results[1].attempts, 3);
        assert!(dir.join("exp00001.result").exists(), "infra failure still writes a result");
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, JournalEvent::Failed { exp: 1, attempts: 3, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halted_campaign_resumes_to_the_identical_table() {
        let (w, p, specs, runner) = small_campaign(50, 13, 8);
        let serial: Vec<_> = specs
            .iter()
            .map(|s| crate::runner::run_experiment(&p, &w, *s, &runner).outcome)
            .collect();
        let serial_table: OutcomeTable = serial.iter().copied().collect();

        let dir = share("halt");
        let mut cfg = fast_config(2, 1, &dir);
        cfg.chaos.halt_after = Some(3); // ≥ 25% of 8, then "kill -9"
        let err = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted, "{err}");

        let mut cfg = fast_config(2, 1, &dir);
        cfg.resume = true;
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert!(report.resumed >= 3, "journal replay skipped finished work: {}", report.resumed);
        assert!(report.resumed < 8, "something was left to execute");
        assert_eq!(results.iter().filter(|r| r.resumed).count(), report.resumed);
        let resumed_outcomes: Vec<_> = results.iter().map(|r| r.outcome).collect();
        assert_eq!(resumed_outcomes, serial, "resume reproduces the serial outcomes");
        for o in Outcome::ALL {
            assert_eq!(table.count(o), serial_table.count(o), "{o}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_expired_lease_is_reclaimed_on_resume() {
        let (w, p, specs, runner) = small_campaign(50, 17, 3);
        let dir = share("orphan");
        // Interrupt immediately: journal exists, nothing finished.
        let mut cfg = fast_config(1, 1, &dir);
        cfg.chaos.halt_after = Some(1);
        let _ = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err();
        // Fake a worker that died holding experiment 2: an expired lease
        // plus its journaled claim.
        let leases = LeaseDir::new(&dir);
        leases.release(2).unwrap();
        leases.claim(2, "ws9.slot9", 1, now_ms().saturating_sub(10_000)).unwrap().unwrap();
        let mut journal = Journal::open(&dir).unwrap();
        journal
            .append(&JournalEvent::Leased {
                exp: 2,
                worker: "ws9.slot9".into(),
                attempt: 1,
                deadline_ms: now_ms().saturating_sub(10_000),
            })
            .unwrap();
        drop(journal);

        let mut cfg = fast_config(1, 1, &dir);
        cfg.resume = true;
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 3, "reclaimed experiment was re-run");
        assert!(report.reclaimed_leases >= 1, "orphaned lease broken: {report:?}");
        assert!(results[2].outcome.is_experiment_outcome());
        assert!(results[2].attempts >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_campaign() {
        let (w, p, specs, runner) = small_campaign(50, 19, 4);
        let dir = share("mismatch");
        let cfg = fast_config(1, 2, &dir);
        run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        // Same share, different fault set.
        let mut sampler = FaultSampler::new(999, p.stage_events, 0, 0);
        let other: Vec<_> = (0..4).map(|_| sampler.sample_any()).collect();
        let mut cfg = fast_config(1, 2, &dir);
        cfg.resume = true;
        let err = run_campaign_now(&p, &w, &other, &runner, &cfg).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        // And a different experiment count.
        let mut cfg = fast_config(1, 2, &dir);
        cfg.resume = true;
        let err = run_campaign_now(&p, &w, &specs[..3], &runner, &cfg).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_a_finished_campaign_executes_nothing() {
        let (w, p, specs, runner) = small_campaign(50, 23, 5);
        let dir = share("noop");
        let cfg = fast_config(2, 1, &dir);
        let (first, ..) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        let mut cfg = fast_config(2, 1, &dir);
        cfg.resume = true;
        let (again, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(report.resumed, 5);
        assert_eq!(report.per_workstation.iter().sum::<usize>(), 0, "nothing re-executed");
        assert!(results.iter().all(|r| r.resumed));
        for o in Outcome::ALL {
            assert_eq!(first.count(o), again.count(o), "{o}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshotting_campaign_matches_plain_and_cleans_up() {
        let (w, p, specs, runner) = small_campaign(50, 29, 4);
        let plain_dir = share("snapless");
        let cfg = fast_config(2, 1, &plain_dir);
        let (plain, ..) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();

        let dir = share("snapful");
        let mut cfg = fast_config(2, 1, &dir);
        cfg.snapshot_ticks = (p.kernel_ticks / 6).max(1);
        let (snapped, ..) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        for o in Outcome::ALL {
            assert_eq!(plain.count(o), snapped.count(o), "{o}");
        }
        // Every experiment went terminal, so no snapshot survives.
        for i in 0..specs.len() {
            assert!(!snapshot_path(&dir, i).exists(), "exp {i} snapshot cleaned up");
        }
        std::fs::remove_dir_all(&plain_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
