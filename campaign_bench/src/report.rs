//! The result line and the provenance every run prints with it.

use crate::campaigns::{fork_config, Kind, WORKERS};
use gemfi_campaign::{AdaptiveConfig, RunnerConfig};
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Result {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Result {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(&m.name),
                    number(m.value),
                    string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The git revision of the checkout the benchmark was built from, when it
/// is a git checkout.
fn git_revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything that produced a result: seed, fault set, checkpoint,
/// configuration, host parallelism and source revision.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub kind: Kind,
    pub seed: u64,
    pub spec_digest: u64,
    pub checkpoint_digest: u64,
}

impl Provenance {
    /// Prints the provenance as one `provenance {json}` line.
    pub fn print(&self) {
        let runner = RunnerConfig::default();
        let mut fields = vec![
            ("workload", string(self.kind.name())),
            ("guest", string(&format!("{} (small scale)", self.kind.guest_name()))),
            ("seed", self.seed.to_string()),
            ("held_out_seed", crate::HELD_OUT_SEED.to_string()),
            ("spec_digest", string(&format!("{:016x}", self.spec_digest))),
            ("checkpoint_digest", string(&format!("{:016x}", self.checkpoint_digest))),
            ("inject_cpu", string(&format!("{:?}", runner.inject_cpu))),
            ("finish_cpu", string(&format!("{:?}", runner.finish_cpu))),
            ("runner_config", string(&format!("{runner:?}"))),
            ("workers", WORKERS.to_string()),
        ];
        match self.kind {
            Kind::SpoolDct => {
                fields.push(("now_config", string("1 workstation x 2 slots, default leases")))
            }
            Kind::ForkCanneal => {
                fields.push(("fork_config", string(&format!("{:?}", fork_config()))))
            }
            Kind::ServePiAdaptive => fields
                .push(("adaptive_config", string(&format!("{:?}", AdaptiveConfig::default())))),
        }
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
        fields.push(("nproc", nproc.to_string()));
        fields.push(("git_revision", string(&git_revision())));
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
        println!("provenance {{{}}}", body.join(", "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let r = Result {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s"), Metric::new("x", f64::NAN, "ms")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
