//! The three campaign paths the benchmark measures, each run exactly as a
//! user runs it, plus the reference results their outcomes are checked
//! against.

use gemfi::{FaultSpec, Outcome};
use gemfi_bench::{select_workloads, Scale};
use gemfi_campaign::{
    prepare_workload, run_campaign_forked, run_campaign_now, run_experiment, run_socket_worker,
    AdaptiveConfig, AdaptiveOutcome, AdaptiveState, CampaignServer, CellDecision, CellKind,
    ExperimentResult, FaultSampler, ForkConfig, NowConfig, OutcomeTable, PreparedWorkload,
    QueueKind, QueueSpec, RunnerConfig, ServerConfig, WorkerOptions,
};
use gemfi_workloads::Workload;
use std::io::{Error, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads in every campaign: the benchmark host has two cores.
pub const WORKERS: usize = 2;
/// Experiments in one `spool-dct` campaign.
pub const SPOOL_DCT_EXPERIMENTS: usize = 160;
/// Experiments in one `fork-canneal` campaign.
pub const FORK_CANNEAL_EXPERIMENTS: usize = 192;
/// Longest an adaptive campaign may take before the run gives up.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(100);

/// A benchmark workload: one campaign path on one guest program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fixed-n campaign through `run_campaign_now` (the spool share).
    SpoolDct,
    /// Fixed-n campaign through `run_campaign_forked`.
    ForkCanneal,
    /// Adaptive campaign on a `CampaignServer` with socket workers.
    ServePiAdaptive,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SpoolDct, Kind::ForkCanneal, Kind::ServePiAdaptive];

    /// The workload name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpoolDct => "spool-dct",
            Kind::ForkCanneal => "fork-canneal",
            Kind::ServePiAdaptive => "serve-pi-adaptive",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The guest program's name in the small-scale registry.
    pub fn guest_name(self) -> &'static str {
        match self {
            Kind::SpoolDct => "dct",
            Kind::ForkCanneal => "canneal",
            Kind::ServePiAdaptive => "pi",
        }
    }

    /// Experiments in one fixed-n campaign (`None` for the adaptive one).
    pub fn experiments(self) -> Option<usize> {
        match self {
            Kind::SpoolDct => Some(SPOOL_DCT_EXPERIMENTS),
            Kind::ForkCanneal => Some(FORK_CANNEAL_EXPERIMENTS),
            Kind::ServePiAdaptive => None,
        }
    }
}

/// The small-scale guest program called `name`.
pub fn guest(name: &str) -> Box<dyn Workload> {
    select_workloads(Scale::Small, Some(name)).pop().expect("guest is in the small-scale registry")
}

/// The fork configuration of `fork-canneal`.
pub fn fork_config() -> ForkConfig {
    ForkConfig { workers: WORKERS, ..ForkConfig::default() }
}

/// A fixed-n campaign's fault set: `n` mixed `sample_any` draws.
pub fn sample_specs(prepared: &PreparedWorkload, seed: u64, n: usize) -> Vec<FaultSpec> {
    let mut sampler = FaultSampler::new(seed, prepared.stage_events, 0, 0);
    (0..n).map(|_| sampler.sample_any()).collect()
}

/// Maps `items` through `f` on `workers` threads, each thread owning one
/// `S` from `init`; results come back in item order, states in thread
/// order.
pub fn par_map<T, R, S>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let r = f(&mut state, i, item);
                        *slots[i].lock().expect("result slot") = Some(r);
                    }
                    state
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let results = slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot").expect("every item mapped"))
        .collect();
    (results, states)
}

/// The per-cell conclusion of an adaptive campaign, in comparable form.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSummary {
    pub experiments: u64,
    pub rounds: u64,
    pub cells: Vec<(CellKind, CellDecision, u64, u64)>,
    pub table: OutcomeTable,
}

impl From<&AdaptiveOutcome> for AdaptiveSummary {
    fn from(o: &AdaptiveOutcome) -> AdaptiveSummary {
        AdaptiveSummary {
            experiments: o.experiments,
            rounds: o.rounds,
            cells: o.cells.iter().map(|c| (c.cell, c.decision, c.n, c.drawn)).collect(),
            table: o.table,
        }
    }
}

/// What a campaign concluded, in the form the correctness check compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Per-experiment outcome and simulated ticks, in experiment order.
    Fixed(Vec<(Outcome, u64)>),
    /// An adaptive campaign's per-cell decisions and pooled table.
    Adaptive(AdaptiveSummary),
}

impl Verdict {
    /// The pooled outcome table.
    pub fn table(&self) -> OutcomeTable {
        match self {
            Verdict::Fixed(rows) => rows.iter().map(|r| r.0).collect(),
            Verdict::Adaptive(s) => s.table,
        }
    }

    /// Experiments the verdict covers.
    pub fn experiments(&self) -> u64 {
        self.table().total()
    }

    /// FNV-1a digest of the verdict's `Debug` rendering: every outcome and
    /// tick count, or every cell's decision, n and draws plus the rounds
    /// and the pooled table.
    pub fn digest(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }
}

/// Committed verdicts, one `<workload> <seed> <experiments> <digest>` line
/// each; `#` starts a comment.
const BASELINES: &str = include_str!("../baselines.txt");

/// The committed verdict of `kind` on `seed`, as `(experiments, digest)`,
/// if one is committed.
pub fn baseline(kind: Kind, seed: u64) -> Option<(u64, u64)> {
    BASELINES.lines().find_map(|line| {
        let f: Vec<&str> = line.split('#').next()?.split_whitespace().collect();
        let [workload, s, n, digest] = f[..] else { return None };
        (workload == kind.name() && s.parse() == Ok(seed))
            .then(|| Some((n.parse().ok()?, u64::from_str_radix(digest, 16).ok()?)))
            .flatten()
    })
}

/// Checks `verdict` against the committed verdict for `kind` on `seed`.
/// `Ok(None)` when none is committed for the seed, `Ok(Some(..))` naming the
/// committed digest when it matches, and an error saying how it differs.
pub fn check_baseline(kind: Kind, seed: u64, verdict: &Verdict) -> Result<Option<u64>, String> {
    let Some((n, digest)) = baseline(kind, seed) else { return Ok(None) };
    if (verdict.experiments(), verdict.digest()) == (n, digest) {
        Ok(Some(digest))
    } else {
        Err(format!(
            "verdict {} experiments / digest {:016x} differs from the committed baseline \
             {n} / {digest:016x} for {} seed {seed} (campaign_bench/baselines.txt; re-baseline \
             it only for a change meant to alter outcomes)",
            verdict.experiments(),
            verdict.digest(),
            kind.name()
        ))
    }
}

/// One measured campaign, set-up included.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Host seconds in `prepare_workload` (boot, checkpoint, golden run).
    pub prepare_s: f64,
    /// Host seconds from the end of preparation to the first experiment:
    /// spec sampling and seeding the share, journal or server.
    pub seed_s: f64,
    /// Host seconds from the first experiment (or claim) to the complete
    /// outcome table, or to every adaptive cell decided or exhausted.
    pub decision_s: f64,
    /// Transport errors: socket workers that ended in an error.
    pub transport_errors: u64,
    /// Failed attempts the transport retried.
    pub retries: u64,
    /// Expired leases the transport reclaimed.
    pub reclaimed: u64,
    /// Bytes the campaign journal holds at the end.
    pub journal_bytes: u64,
    /// Host seconds of the window `busy_cpu_s` covers: the call into the
    /// spool path (seeding included), or server start to completion.
    /// Zero on `fork-canneal`, which has no transport.
    pub transport_window_s: f64,
    /// Process CPU seconds (all threads) spent in that window.
    pub busy_cpu_s: f64,
    /// Digest of the prepared checkpoint.
    pub checkpoint_digest: u64,
    /// What the campaign concluded.
    pub verdict: Verdict,
}

impl CampaignRun {
    /// Set-up time: everything before the first experiment runs.
    pub fn setup_s(&self) -> f64 {
        self.prepare_s + self.seed_s
    }

    /// Experiments classified.
    pub fn experiments(&self) -> u64 {
        self.verdict.experiments()
    }

    /// Experiments the harness gave up on plus transport errors.
    pub fn failed(&self) -> u64 {
        self.verdict.table().count(Outcome::Infrastructure) + self.transport_errors
    }
}

/// CPU seconds this process has used so far, all threads (live and ended)
/// together, from `/proc/self/stat` (`utime + stime`, in `USER_HZ` = 100
/// ticks per second on Linux).
pub fn process_cpu_s() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| Error::other("malformed /proc/self/stat"))
    };
    // `utime` and `stime` are fields 14 and 15; `rest` starts at field 3.
    Ok(tick(11)? + tick(12)?)
}

/// Size of every `campaign.journal` under `dir`.
fn journal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                journal_bytes(&path)
            } else if path.file_name().is_some_and(|n| n == "campaign.journal") {
                e.metadata().map(|m| m.len()).unwrap_or(0)
            } else {
                0
            }
        })
        .sum()
}

/// Runs one campaign of `kind` on the fault set drawn from `seed`, with
/// `share` as its scratch share directory (created fresh).
pub fn run_campaign(kind: Kind, seed: u64, share: &Path) -> std::io::Result<CampaignRun> {
    let _ = std::fs::remove_dir_all(share);
    std::fs::create_dir_all(share)?;
    let guest = guest(kind.guest_name());
    let t0 = Instant::now();
    let prepared = prepare_workload(guest.as_ref()).map_err(Error::other)?;
    let prepare_s = t0.elapsed().as_secs_f64();
    let runner = RunnerConfig::default();
    let mut run = match kind {
        Kind::SpoolDct => {
            let specs = sample_specs(&prepared, seed, SPOOL_DCT_EXPERIMENTS);
            let config = NowConfig::new(1, WORKERS, share);
            let (cpu0, t1) = (process_cpu_s()?, Instant::now());
            let (_, completed, report) =
                run_campaign_now(&prepared, guest.as_ref(), &specs, &runner, &config)?;
            let outer = t1.elapsed().as_secs_f64();
            let decision_s = report.wall.as_secs_f64();
            CampaignRun {
                prepare_s,
                seed_s: (t1 - t0).as_secs_f64() - prepare_s + outer - decision_s,
                decision_s,
                transport_errors: 0,
                retries: report.retries,
                reclaimed: report.reclaimed_leases,
                journal_bytes: 0,
                transport_window_s: outer,
                busy_cpu_s: process_cpu_s()? - cpu0,
                checkpoint_digest: prepared.checkpoint.digest(),
                verdict: Verdict::Fixed(completed.iter().map(|c| (c.outcome, c.ticks)).collect()),
            }
        }
        Kind::ForkCanneal => {
            let specs = sample_specs(&prepared, seed, FORK_CANNEAL_EXPERIMENTS);
            let t1 = Instant::now();
            let results =
                run_campaign_forked(&prepared, guest.as_ref(), &specs, &runner, &fork_config());
            CampaignRun {
                prepare_s,
                seed_s: (t1 - t0).as_secs_f64() - prepare_s,
                decision_s: t1.elapsed().as_secs_f64(),
                transport_errors: 0,
                retries: 0,
                reclaimed: 0,
                journal_bytes: 0,
                transport_window_s: 0.0,
                busy_cpu_s: 0.0,
                checkpoint_digest: prepared.checkpoint.digest(),
                verdict: Verdict::Fixed(results.iter().map(|r| (r.outcome, r.ticks)).collect()),
            }
        }
        Kind::ServePiAdaptive => serve_adaptive(&prepared, seed, share, t0, prepare_s)?,
    };
    run.journal_bytes = journal_bytes(share);
    let _ = std::fs::remove_dir_all(share);
    Ok(run)
}

/// Runs only the set-up of a campaign of `kind` on `seed`, through the same
/// calls [`run_campaign`] makes, and returns its host seconds: preparation,
/// spec sampling, and seeding the share (`spool-dct`) or starting the
/// server (`serve-pi-adaptive`). A set-up takes milliseconds and file
/// creation on the share makes it noisy, so a run repeats it many times and
/// reports the median.
///
/// The spool share can only be seeded by `run_campaign_now` itself, so the
/// `spool-dct` set-up runs a campaign whose every attempt fails at claim
/// time (the program's own chaos hook, no retries): its seeding is the
/// real campaign's, and the claims that follow fall in `NowReport::wall`,
/// which the set-up time excludes.
pub fn time_setup(kind: Kind, seed: u64, share: &Path) -> std::io::Result<f64> {
    let _ = std::fs::remove_dir_all(share);
    std::fs::create_dir_all(share)?;
    let guest = guest(kind.guest_name());
    let t0 = Instant::now();
    let prepared = prepare_workload(guest.as_ref()).map_err(Error::other)?;
    let setup_s = match kind {
        Kind::SpoolDct => {
            let specs = sample_specs(&prepared, seed, SPOOL_DCT_EXPERIMENTS);
            let mut config = NowConfig::new(1, WORKERS, share);
            config.max_retries = 0;
            config.chaos.panic_on = (0..specs.len()).map(|exp| (exp, 1)).collect();
            let t1 = Instant::now();
            let (table, _, report) = run_campaign_now(
                &prepared,
                guest.as_ref(),
                &specs,
                &RunnerConfig::default(),
                &config,
            )?;
            if table.count(Outcome::Infrastructure) != specs.len() as u64 {
                return Err(Error::other("a set-up-only campaign ran an experiment"));
            }
            (t1 - t0 + t1.elapsed()).as_secs_f64() - report.wall.as_secs_f64()
        }
        Kind::ForkCanneal => {
            sample_specs(&prepared, seed, FORK_CANNEAL_EXPERIMENTS);
            t0.elapsed().as_secs_f64()
        }
        Kind::ServePiAdaptive => {
            let server =
                CampaignServer::start(ServerConfig::new(share), adaptive_queue(&prepared, seed))?;
            let setup_s = t0.elapsed().as_secs_f64();
            server.shutdown()?;
            setup_s
        }
    };
    let _ = std::fs::remove_dir_all(share);
    Ok(setup_s)
}

/// The one queue of `serve-pi-adaptive`: the default adaptive campaign on
/// pi, drawn from `seed`.
fn adaptive_queue(prepared: &PreparedWorkload, seed: u64) -> Vec<QueueSpec> {
    vec![QueueSpec {
        name: "pi".to_string(),
        priority: 1,
        quota: 0,
        workload: "pi".to_string(),
        scale: "small".to_string(),
        prepared: prepared.clone(),
        kind: QueueKind::Adaptive { config: AdaptiveConfig::default(), seed },
    }]
}

/// One adaptive campaign on a campaign server with [`WORKERS`] socket
/// workers on localhost.
fn serve_adaptive(
    prepared: &PreparedWorkload,
    seed: u64,
    share: &Path,
    t0: Instant,
    prepare_s: f64,
) -> std::io::Result<CampaignRun> {
    let server = CampaignServer::start(ServerConfig::new(share), adaptive_queue(prepared, seed))?;
    let (cpu1, t1) = (process_cpu_s()?, Instant::now());
    let addr = server.addr().to_string();
    let resolver = |name: &str, scale: &str| -> Option<Box<dyn Workload>> {
        (scale == "small").then(|| select_workloads(Scale::Small, Some(name)).pop()).flatten()
    };
    let (report, complete, decision_s, busy_cpu_s, transport_errors) =
        std::thread::scope(|scope| {
            let fleet: Vec<_> = (0..WORKERS)
                .map(|i| {
                    let addr = &addr;
                    let resolver = &resolver;
                    scope.spawn(move || {
                        run_socket_worker(
                            addr,
                            resolver,
                            &WorkerOptions::new(format!("bench-w{i}")),
                        )
                    })
                })
                .collect();
            let complete = server.wait_complete(CAMPAIGN_TIMEOUT);
            let decision_s = t1.elapsed().as_secs_f64();
            let busy_cpu_s = process_cpu_s().map(|cpu| cpu - cpu1);
            let join_fleet = |fleet: Vec<std::thread::ScopedJoinHandle<'_, _>>| {
                fleet.into_iter().map(|w| w.join()).filter(|j| !matches!(j, Ok(Ok(_)))).count()
                    as u64
            };
            // A finished campaign tells its workers so before the server goes
            // away; an unfinished one must go away first, or its workers never
            // stop.
            if complete {
                let errors = join_fleet(fleet);
                (server.shutdown(), complete, decision_s, busy_cpu_s, errors)
            } else {
                let report = server.shutdown();
                (report, complete, decision_s, busy_cpu_s, join_fleet(fleet))
            }
        });
    let report = report?;
    if !complete {
        return Err(Error::new(ErrorKind::TimedOut, "adaptive campaign did not complete"));
    }
    let queue = &report.queues[0];
    let outcome = queue
        .adaptive
        .as_ref()
        .ok_or_else(|| Error::other("adaptive queue finished without a conclusion"))?;
    Ok(CampaignRun {
        prepare_s,
        seed_s: (t1 - t0).as_secs_f64() - prepare_s,
        decision_s,
        transport_errors,
        retries: queue.retries,
        reclaimed: queue.reclaimed,
        journal_bytes: 0,
        transport_window_s: decision_s,
        busy_cpu_s: busy_cpu_s?,
        checkpoint_digest: prepared.checkpoint.digest(),
        verdict: Verdict::Adaptive(AdaptiveSummary::from(outcome)),
    })
}

/// The reference a campaign of `kind` on `seed` must reproduce: every
/// experiment run on its own with `run_experiment` ([`WORKERS`] threads),
/// and for the adaptive campaign the `AdaptiveState` round loop folded in
/// process. Returns the verdict and the per-round results.
pub fn reference(kind: Kind, seed: u64) -> Result<(Verdict, Vec<Vec<ExperimentResult>>), String> {
    let guest = guest(kind.guest_name());
    let prepared = prepare_workload(guest.as_ref())?;
    let runner = RunnerConfig::default();
    let run_all = |specs: &[FaultSpec]| {
        par_map(
            specs,
            WORKERS,
            || (),
            |_, _, s| run_experiment(&prepared, guest.as_ref(), *s, &runner),
        )
        .0
    };
    match kind.experiments() {
        Some(n) => {
            let results = run_all(&sample_specs(&prepared, seed, n));
            let verdict = Verdict::Fixed(results.iter().map(|r| (r.outcome, r.ticks)).collect());
            Ok((verdict, vec![results]))
        }
        None => {
            let (summary, rounds) = fold_adaptive(&prepared, seed, |specs| Ok(run_all(specs)))?;
            Ok((Verdict::Adaptive(summary), rounds))
        }
    }
}

/// The in-process `AdaptiveState` round loop of the default adaptive
/// campaign on `seed`: `run_round` executes each round's draws and returns
/// their results in draw order. Returns the conclusion and every round's
/// results, or the first error `run_round` reports.
pub fn fold_adaptive(
    prepared: &PreparedWorkload,
    seed: u64,
    mut run_round: impl FnMut(&[FaultSpec]) -> Result<Vec<ExperimentResult>, String>,
) -> Result<(AdaptiveSummary, Vec<Vec<ExperimentResult>>), String> {
    let config = AdaptiveConfig::default();
    let mut state = AdaptiveState::new(&config, seed, prepared.stage_events);
    let mut table = OutcomeTable::new();
    let mut rounds = Vec::new();
    loop {
        let draws = state.next_round();
        if draws.is_empty() {
            break;
        }
        let specs: Vec<FaultSpec> = draws.iter().map(|d| d.spec).collect();
        let results = run_round(&specs)?;
        for (draw, r) in draws.iter().zip(&results) {
            state.record(draw.cell, r.outcome);
            table.add(r.outcome);
        }
        state.end_round();
        rounds.push(results);
    }
    state.finalize();
    let summary = AdaptiveSummary {
        experiments: state.drawn_total(),
        rounds: state.rounds(),
        cells: state.reports(config.z).iter().map(|c| (c.cell, c.decision, c.n, c.drawn)).collect(),
        table,
    };
    Ok((summary, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_committed_baselines_for_both_named_seeds() {
        for kind in Kind::ALL {
            for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
                assert!(baseline(kind, seed).is_some(), "{} seed {seed}", kind.name());
            }
            assert_eq!(baseline(kind, 7), None);
        }
    }

    #[test]
    fn a_changed_verdict_fails_the_baseline_check() {
        let rows = vec![(Outcome::Correct, 10), (Outcome::Crashed, 20)];
        let verdict = Verdict::Fixed(rows.clone());
        let mut moved = rows;
        moved[1].1 += 1;
        assert_ne!(verdict.digest(), Verdict::Fixed(moved).digest());
        assert_eq!(check_baseline(Kind::SpoolDct, 7, &verdict), Ok(None));
        let why = check_baseline(Kind::SpoolDct, crate::DEFAULT_SEED, &verdict).unwrap_err();
        assert!(why.contains("differs from the committed baseline"), "{why}");
    }

    #[test]
    fn process_cpu_time_counts_this_thread() {
        let before = process_cpu_s().unwrap();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s().unwrap() > before);
    }
}
