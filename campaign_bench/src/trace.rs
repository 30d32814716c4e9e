//! In-memory spans and the derivations the traced run reports from them:
//! self time, quantiles, transport idle share and round-barrier idle.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions, kept in memory per worker thread, and merged when the
//! run ends.

use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `exec.o3_prefault`.
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch; `end >= start`.
    pub end: f64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Experiment the span belongs to.
    pub exp: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder for one thread. Spans are appended in open order and
/// closed in place, so a parent always precedes its children.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (share one epoch across the
    /// threads of a run so their spans are comparable).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, exp: u64) -> usize {
        let t = self.now();
        self.spans.push(Span { name, start: t, end: t, parent, exp });
        self.spans.len() - 1
    }

    /// Closes the span at `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Takes the recorded spans out.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = span.start;
            for (s, e) in kids {
                let s = s.max(cursor);
                let e = e.min(span.end);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.secs() - covered
        })
        .collect()
}

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Share of worker capacity left idle: one minus the busy seconds over
/// `wall × workers`.
pub fn idle_share(busy_secs: f64, wall_secs: f64, workers: usize) -> f64 {
    1.0 - busy_secs / (wall_secs * workers as f64)
}

/// Makespan of `jobs` (in claim order) on `workers` identical workers,
/// each job going to the worker that frees up first.
pub fn list_makespan(jobs: &[f64], workers: usize) -> f64 {
    let mut free_at = vec![0.0f64; workers.max(1)];
    for job in jobs {
        let w = (0..free_at.len())
            .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
            .expect("at least one worker");
        free_at[w] += job;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// Share of worker capacity lost at round barriers: each round's makespan
/// on `workers` workers, against the perfectly balanced `sum / workers`.
pub fn barrier_idle_share(rounds: &[Vec<f64>], workers: usize) -> f64 {
    let (mut balanced, mut makespan) = (0.0, 0.0);
    for jobs in rounds {
        balanced += jobs.iter().sum::<f64>() / workers as f64;
        makespan += list_makespan(jobs, workers);
    }
    if makespan > 0.0 {
        1.0 - balanced / makespan
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, exp: 0 }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("drive", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a`: the covered part counts once.
            span("b", 3.0, 6.0, Some(0)),
            // Sticks out past the parent: only the inside counts.
            span("c", 9.0, 12.0, Some(0)),
            span("grandchild", 1.5, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - (10.0 - 5.0 - 1.0)).abs() < 1e-12, "{st:?}");
        assert!((st[1] - 2.5).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((st[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_share_is_unused_worker_capacity() {
        assert!((idle_share(15.0, 10.0, 2) - 0.25).abs() < 1e-12);
        assert_eq!(idle_share(20.0, 10.0, 2), 0.0);
    }

    #[test]
    fn barrier_idle_counts_only_imbalance() {
        // Balanced round: 2+2 on two workers, no idle.
        assert_eq!(barrier_idle_share(&[vec![1.0, 1.0, 1.0, 1.0]], 2), 0.0);
        // One long job: makespan 3 against a balanced 2 → a third idle.
        let share = barrier_idle_share(&[vec![3.0, 1.0]], 2);
        assert!((share - (1.0 - 2.0 / 3.0)).abs() < 1e-12, "{share}");
        // Rounds add up before the ratio.
        let share = barrier_idle_share(&[vec![3.0, 1.0], vec![1.0, 1.0]], 2);
        assert!((share - (1.0 - 3.0 / 4.0)).abs() < 1e-12, "{share}");
        assert_eq!(list_makespan(&[2.0, 1.0, 1.0], 2), 2.0);
        assert_eq!(list_makespan(&[1.0, 1.0, 2.0], 2), 3.0);
    }
}
