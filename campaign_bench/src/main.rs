//! End-to-end campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload spool-dct|fork-canneal|serve-pi-adaptive \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload's campaign path back to back for
//! `--seconds`, checks every outcome table against the reference, and
//! prints the end-to-end metrics. `--trace 1` runs one campaign plus a
//! traced replay and prints the per-layer split. The last line of standard
//! output is one JSON object; see `campaign_bench/README.md`.

mod campaigns;
mod replay;
mod report;
mod trace;
mod traced;

use campaigns::{check_baseline, reference, run_campaign, time_setup, Kind};
use gemfi_campaign::journal::spec_digest;
use report::{Metric, Provenance};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{median, quantile};

/// The seed the benchmark runs when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, for checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 1042;
/// Set-ups timed on their own after every campaign of a plain run;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 10;

const USAGE: &str = "usage: campaign-bench --workload spool-dct|fork-canneal|serve-pi-adaptive \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args { kind: kind.ok_or("--workload is required")?, seed, seconds, trace })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Scratch directory for this run's shares, inside the benchmark package.
fn work_dir(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work").join(format!(
        "{}-{}",
        kind.name(),
        std::process::id()
    ))
}

/// [`SETUP_REPS`] set-ups on their own, in seconds.
fn setups(args: &Args, work: &std::path::Path) -> Result<Vec<f64>, String> {
    // The spool set-up's claims fail by the program's injected panic; keep
    // those messages off stderr while it runs.
    std::panic::set_hook(Box::new(|_| {}));
    let times: std::io::Result<Vec<f64>> = (0..SETUP_REPS)
        .map(|i| time_setup(args.kind, args.seed, &work.join(format!("setup{i}"))))
        .collect();
    drop(std::panic::take_hook());
    times.map_err(|e| e.to_string())
}

/// Campaigns back to back for `seconds`, each followed by [`SETUP_REPS`]
/// set-ups on their own, then the reference check.
fn plain(args: &Args, work: &std::path::Path) -> Result<report::Result, String> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut runs = Vec::new();
    let mut setup = Vec::new();
    let mut peak = None;
    loop {
        let share = work.join(format!("rep{}", runs.len()));
        let start = Instant::now();
        runs.push(run_campaign(args.kind, args.seed, &share).map_err(|e| e.to_string())?);
        if peak.is_none() {
            // One campaign per process is how users run it; later campaigns
            // in this process would start from memory the first one left.
            peak = Some(peak_rss_mb()?);
        }
        // File creation and large reads and writes on the share cost up to
        // twice as much in some stretches of seconds as in others; set-ups
        // spread over the whole run sample more of them than one burst.
        setup.extend(setups(args, work)?);
        // Start another campaign only if it should end before the deadline.
        if Instant::now() + start.elapsed() > deadline {
            break;
        }
    }
    let peak = peak.expect("at least one campaign ran");
    let (expected, rounds) = reference(args.kind, args.seed)?;
    let baseline = check_baseline(args.kind, args.seed, &expected);
    let specs: Vec<_> = rounds.iter().flatten().map(|r| r.spec).collect();
    let matching = runs.iter().filter(|r| r.verdict == expected).count();
    let attempted: u64 = runs.iter().map(|r| r.experiments()).sum();
    let failed: u64 = runs.iter().map(|r| r.failed()).sum();
    let decision: Vec<f64> = runs.iter().map(|r| r.decision_s).collect();
    let campaign_setup: Vec<f64> = runs.iter().map(|r| r.setup_s()).collect();
    let decision_s = median(&decision);
    let per_run = expected.experiments();

    println!(
        "workload {} seed {}: {} campaigns of {} experiments, {} workers",
        args.kind.name(),
        args.seed,
        runs.len(),
        per_run,
        campaigns::WORKERS
    );
    println!("  decision_s   {decision_s:.4} s (median; all: {decision:.4?})");
    println!("  exp_per_s    {:.2} 1/s", per_run as f64 / decision_s);
    let prepare: Vec<f64> = runs.iter().map(|r| r.prepare_s).collect();
    println!(
        "  setup_s      {:.5} s (median of {} set-ups; quartiles {:.5} .. {:.5} s)",
        median(&setup),
        setup.len(),
        quantile(&setup, 0.25),
        quantile(&setup, 0.75)
    );
    println!(
        "               campaigns' own set-ups {campaign_setup:.5?} s, \
         prepare_workload median {:.5} s",
        median(&prepare)
    );
    println!("  peak_rss_mb  {peak:.2} MB (first campaign)");
    println!("  failed_frac  {:.4} ({failed} of {attempted})", failed as f64 / attempted as f64);
    println!("  outcome table {}", expected.table().percent_row());
    println!("  outcome tables equal to the reference: {matching} of {}", runs.len());
    match &baseline {
        Ok(Some(digest)) => {
            println!("  verdict digest {digest:016x} equals the committed baseline")
        }
        Ok(None) => println!(
            "  verdict digest {:016x} (no committed baseline for seed {})",
            expected.digest(),
            args.seed
        ),
        Err(why) => println!("  {why}"),
    }
    Provenance {
        kind: args.kind,
        seed: args.seed,
        spec_digest: spec_digest(&specs),
        checkpoint_digest: runs[0].checkpoint_digest,
    }
    .print();

    Ok(report::Result {
        correct: matching == runs.len() && baseline.is_ok(),
        attempted,
        failed,
        metrics: vec![
            Metric::new("decision_s", decision_s, "s"),
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("peak_rss_mb", peak, "MB"),
        ],
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = work_dir(args.kind);
    let outcome = if args.trace { traced::run(&args, &work) } else { plain(&args, &work) };
    let _ = std::fs::remove_dir_all(&work);
    // Drop the shared parent too once no other run is using it.
    let _ = work.parent().map(std::fs::remove_dir);
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json());
            if !result.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            args(&["--workload", "fork-canneal", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .unwrap();
        assert_eq!(a, Args { kind: Kind::ForkCanneal, seed: 7, seconds: 3, trace: true });
        let a = args(&["--workload", "spool-dct"]).unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "spool-dct", "--trace", "2"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
