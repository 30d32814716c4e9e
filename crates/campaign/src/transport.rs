//! The campaign transport abstraction: one claim/heartbeat/report protocol,
//! two backends.
//!
//! [`CampaignTransport`] is the worker-facing face of the window scheduler
//! ([`crate::window`]). The spool backend ([`SpoolTransport`]) locks the
//! scheduler directly — in-process worker threads sharing one spool
//! directory, the PR-1 topology. The socket backend
//! ([`crate::worker::SocketTransport`]) speaks the same verbs over TCP to a
//! [`crate::server::CampaignServer`], which locks the very same scheduler
//! type on the workers' behalf. The generic worker loop
//! ([`crate::worker`]) is written against this trait and cannot tell the
//! difference — which is the point: every recovery path (reap, backoff,
//! zombie suppression, journal fold) is tested once and holds on both.

use crate::window::{fault_path, ClaimOutcome, WindowScheduler};
use gemfi::{AbortToken, FaultConfig, FaultSpec, Outcome};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A leased experiment handed to a worker.
#[derive(Debug, Clone)]
pub struct WorkAssignment {
    /// Campaign queue the experiment belongs to (`"spool"` for the
    /// directory backend, the queue name for the server).
    pub queue: String,
    /// Global experiment index.
    pub exp: usize,
    /// 1-based attempt this lease covers.
    pub attempt: u64,
    /// Lease expiry, ms since the epoch on the *scheduler's* clock.
    pub deadline_ms: u64,
    /// Lease duration (heartbeat cadence derives from it).
    pub lease_ms: u64,
    /// The fault to inject.
    pub spec: FaultSpec,
    /// Raised when the attempt must stop: by the in-process reaper (spool)
    /// or by the worker's own heartbeat loop on server loss (socket).
    pub abort: AbortToken,
}

/// Reply to a claim request.
#[derive(Debug)]
pub enum ClaimReply {
    /// A leased experiment to execute.
    Work(WorkAssignment),
    /// Nothing claimable right now; retry after the hint.
    Idle {
        /// Suggested retry delay, milliseconds.
        backoff_ms: u64,
    },
    /// The campaign (or every queue) is terminal: the worker may exit.
    Complete,
}

/// Whether a report landed or was dropped as a zombie.
pub use crate::window::ReportAck;

/// Keeps an attempt's liveness machinery (the socket backend's heartbeat
/// thread) running for exactly the duration of the execution; dropping the
/// guard stops it.
#[derive(Debug, Default)]
pub struct AttemptGuard {
    stop: Option<Arc<AtomicBool>>,
}

impl AttemptGuard {
    /// A guard with no machinery behind it (spool backend).
    pub fn inert() -> AttemptGuard {
        AttemptGuard { stop: None }
    }

    /// A guard that raises `stop` when dropped.
    pub fn stopping(stop: Arc<AtomicBool>) -> AttemptGuard {
        AttemptGuard { stop: Some(stop) }
    }
}

impl Drop for AttemptGuard {
    fn drop(&mut self) {
        if let Some(stop) = &self.stop {
            stop.store(true, Ordering::SeqCst);
        }
    }
}

/// The claim/heartbeat/result-fold cycle, backend-neutral.
pub trait CampaignTransport {
    /// Asks for one experiment lease.
    ///
    /// # Errors
    ///
    /// Transport I/O errors (the socket backend retries transient
    /// connection loss internally before surfacing one).
    fn claim(&mut self, worker: &str) -> std::io::Result<ClaimReply>;

    /// Starts attempt-scoped liveness machinery (heartbeats). The default
    /// is inert: the spool backend's fixed-deadline lease semantics need
    /// none.
    fn begin_attempt(&mut self, _worker: &str, _assignment: &WorkAssignment) -> AttemptGuard {
        AttemptGuard::inert()
    }

    /// Reports a finished experiment.
    ///
    /// # Errors
    ///
    /// Transport I/O errors.
    fn report_result(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        outcome: Outcome,
        exit: &str,
        ticks: u64,
    ) -> std::io::Result<ReportAck>;

    /// Reports a failed attempt.
    ///
    /// # Errors
    ///
    /// Transport I/O errors.
    fn report_failure(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        reason: &str,
    ) -> std::io::Result<ReportAck>;
}

/// The spool-directory backend: in-process worker threads locking the
/// window scheduler directly, exactly the PR-1 NoW executor's shape.
pub(crate) struct SpoolTransport<'a> {
    pub(crate) scheduler: &'a Mutex<WindowScheduler>,
    pub(crate) share: PathBuf,
    /// Workstation index for load-balance accounting.
    pub(crate) ws: usize,
}

impl CampaignTransport for SpoolTransport<'_> {
    fn claim(&mut self, worker: &str) -> std::io::Result<ClaimReply> {
        let claimed = {
            let mut s = self.scheduler.lock().expect("schedule mutex");
            s.try_claim(worker)?
        };
        match claimed {
            ClaimOutcome::Complete => Ok(ClaimReply::Complete),
            ClaimOutcome::Idle => Ok(ClaimReply::Idle { backoff_ms: 1 }),
            ClaimOutcome::Work { exp, attempt, deadline_ms, abort, .. } => {
                // Execute the *spooled* fault file, not the in-memory spec:
                // the share artifact is the protocol artifact a physical
                // cluster would exchange, so the round-trip stays exercised.
                let cfg = FaultConfig::load(&fault_path(&self.share, exp))
                    .expect("spooled fault file readable");
                let spec = cfg.faults()[0];
                Ok(ClaimReply::Work(WorkAssignment {
                    queue: "spool".to_string(),
                    exp,
                    attempt,
                    deadline_ms,
                    lease_ms: 0,
                    spec,
                    abort,
                }))
            }
        }
    }

    fn report_result(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        outcome: Outcome,
        exit: &str,
        ticks: u64,
    ) -> std::io::Result<ReportAck> {
        let mut s = self.scheduler.lock().expect("schedule mutex");
        s.report_done(
            assignment.exp,
            assignment.attempt,
            worker,
            Some(self.ws),
            outcome,
            exit,
            ticks,
        )
    }

    fn report_failure(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        reason: &str,
    ) -> std::io::Result<ReportAck> {
        let mut s = self.scheduler.lock().expect("schedule mutex");
        s.report_failed(assignment.exp, assignment.attempt, worker, reason)
    }
}
